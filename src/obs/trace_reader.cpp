#include "obs/trace_reader.hpp"

#include <cctype>
#include <cstdlib>
#include <sstream>

#include "obs/json.hpp"

namespace ccs {

const TraceField* TraceEvent::find(std::string_view key) const {
  for (const TraceField& f : fields)
    if (f.key == key) return &f;
  return nullptr;
}

bool TraceEvent::number(std::string_view key, long long& out) const {
  const TraceField* f = find(key);
  if (f == nullptr || f->kind != TraceField::Kind::kNumber) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(f->text.c_str(), &end, 10);
  if (errno != 0 || end == f->text.c_str() || *end != '\0') return false;
  out = v;
  return true;
}

bool TraceEvent::string(std::string_view key, std::string& out) const {
  const TraceField* f = find(key);
  if (f == nullptr || f->kind != TraceField::Kind::kString) return false;
  out = f->text;
  return true;
}

namespace {

/// Cursor over one line.  Parsing never throws: every helper returns false
/// and leaves an explanation in `error` instead.
struct Scanner {
  std::string_view s;
  std::size_t pos = 0;
  std::string error;

  void skip_ws() {
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos])) != 0)
      ++pos;
  }

  bool eat(char c) {
    skip_ws();
    if (pos >= s.size() || s[pos] != c) return false;
    ++pos;
    return true;
  }

  [[nodiscard]] bool fail(std::string what) {
    if (error.empty()) error = std::move(what);
    return false;
  }

  /// JSON string literal -> unescaped characters.
  bool string_literal(std::string& out) {
    if (!eat('"')) return fail("expected '\"'");
    out.clear();
    while (pos < s.size()) {
      const char c = s[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= s.size()) break;
      const char esc = s[pos++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // The writer only emits \u00XX for control bytes; decode the
          // low byte and ignore the (always-zero) high byte.
          if (pos + 4 > s.size()) return fail("truncated \\u escape");
          const std::string hex(s.substr(pos, 4));
          pos += 4;
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return fail("bad \\u escape");
          out.push_back(static_cast<char>(code & 0xff));
          break;
        }
        default:
          return fail("unknown escape '\\" + std::string(1, esc) + "'");
      }
    }
    return fail("unterminated string");
  }

  /// Number literal, kept as its literal spelling.
  bool number_literal(std::string& out) {
    skip_ws();
    const std::size_t start = pos;
    if (pos < s.size() && (s[pos] == '-' || s[pos] == '+')) ++pos;
    bool digits = false;
    while (pos < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[pos])) != 0 ||
            s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
            s[pos] == '-' || s[pos] == '+')) {
      digits |= std::isdigit(static_cast<unsigned char>(s[pos])) != 0;
      ++pos;
    }
    if (!digits) return fail("expected a number");
    out = std::string(s.substr(start, pos - start));
    return true;
  }

  /// string | number | true | false | [numbers...]
  bool value(TraceField& f) {
    skip_ws();
    if (pos >= s.size()) return fail("expected a value");
    const char c = s[pos];
    if (c == '"') {
      f.kind = TraceField::Kind::kString;
      return string_literal(f.text);
    }
    if (c == 't' || c == 'f') {
      const std::string_view word = c == 't' ? "true" : "false";
      if (s.substr(pos, word.size()) != word) return fail("expected a value");
      pos += word.size();
      f.kind = TraceField::Kind::kBool;
      f.text = word;
      return true;
    }
    if (c == '[') {
      ++pos;
      f.kind = TraceField::Kind::kArray;
      // A fill, not = "[": GCC 12 -Wrestrict false positive (bug 105651).
      f.text.assign(1, '[');
      skip_ws();
      if (eat(']')) {
        f.text += ']';
        return true;
      }
      while (true) {
        std::string n;
        if (!number_literal(n)) return fail("arrays may hold only numbers");
        if (f.text.size() > 1) f.text += ',';
        f.text += n;
        if (eat(']')) break;
        if (!eat(',')) return fail("expected ',' or ']' in array");
      }
      f.text += ']';
      return true;
    }
    f.kind = TraceField::Kind::kNumber;
    return number_literal(f.text);
  }

  bool object(std::vector<TraceField>& fields) {
    if (!eat('{')) return fail("expected '{'");
    skip_ws();
    if (eat('}')) return finish();
    while (true) {
      TraceField f;
      if (!string_literal(f.key)) return fail("expected a field name");
      if (!eat(':')) return fail("expected ':'");
      if (!value(f)) return false;
      fields.push_back(std::move(f));
      if (eat('}')) break;
      if (!eat(',')) return fail("expected ',' or '}'");
    }
    return finish();
  }

  bool finish() {
    skip_ws();
    if (pos != s.size()) return fail("trailing characters after object");
    return true;
  }
};

}  // namespace

ParsedTrace parse_trace_jsonl(const std::string& text) {
  ParsedTrace out;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    bool blank = true;
    for (const char c : line)
      blank &= std::isspace(static_cast<unsigned char>(c)) != 0;
    if (blank) continue;
    Scanner sc;
    sc.s = line;
    TraceEvent e;
    e.line = lineno;
    if (sc.object(e.fields)) {
      out.events.push_back(std::move(e));
    } else {
      out.issues.push_back(TraceParseIssue{
          lineno, sc.error.empty() ? "malformed line" : sc.error});
    }
  }
  return out;
}

std::string canonical_trace_event(const TraceEvent& e) {
  std::string out;
  for (const TraceField& f : e.fields) {
    if (!out.empty()) out += ';';
    out += f.key;
    out += '=';
    out += f.kind == TraceField::Kind::kString ? json_escape(f.text) : f.text;
  }
  return out;
}

}  // namespace ccs

#include "serve_loop.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <thread>

#include "layers.hpp"

namespace perfbench {

namespace {

/// Reads a pipe without buffering ahead of what has arrived.
class FdReadBuf final : public std::streambuf {
public:
  explicit FdReadBuf(int fd) : fd_(fd) {}

protected:
  int_type underflow() override {
    while (true) {
      const ssize_t n = ::read(fd_, buf_, sizeof buf_);
      if (n > 0) {
        setg(buf_, buf_, buf_ + n);
        return traits_type::to_int_type(buf_[0]);
      }
      if (n < 0 && errno == EINTR) continue;
      return traits_type::eof();
    }
  }

private:
  int fd_;
  char buf_[1 << 16];
};

/// Collects the service's output and stamps each line as it completes.
/// A whole block (a response line) is appended under one lock.
class LineStampBuf final : public std::streambuf {
public:
  explicit LineStampBuf(Clock::time_point t0) : t0_(t0) {}

  void take(std::vector<std::string>& lines, std::vector<double>& ms) {
    const std::scoped_lock lock(mu_);
    lines = std::move(lines_);
    ms = std::move(ms_);
  }

protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const std::scoped_lock lock(mu_);
    const char* end = s + n;
    while (s != end) {
      const char* nl = std::find(s, end, '\n');
      current_.append(s, nl);
      if (nl == end) break;
      ms_.push_back(ms_since(t0_));
      lines_.push_back(std::move(current_));
      current_.clear();
      s = nl + 1;
    }
    return n;
  }

  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return 0;
    const char ch = traits_type::to_char_type(c);
    (void)xsputn(&ch, 1);
    return c;
  }

private:
  Clock::time_point t0_;
  std::mutex mu_;
  std::string current_;
  std::vector<std::string> lines_;
  std::vector<double> ms_;
};

void write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("write to the serve pipe failed");
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

struct OpenLoop::State {
  explicit State(const ccs::ServeOptions& o)
      : opts(o), t0(Clock::now()), out_buf(t0) {}
  ccs::ServeOptions opts;
  Clock::time_point t0;
  int fds[2] = {-1, -1};
  std::unique_ptr<FdReadBuf> in_buf;
  LineStampBuf out_buf;
  std::ostringstream err;
  ccs::ServeSummary summary;
  std::thread loop;
};

OpenLoop::OpenLoop(const ccs::ServeOptions& opts)
    : state_(std::make_unique<State>(opts)) {
  State& s = *state_;
  if (::pipe(s.fds) != 0) throw std::runtime_error("pipe() failed");
  s.in_buf = std::make_unique<FdReadBuf>(s.fds[0]);
  s.loop = std::thread([&s] {
    std::istream in(s.in_buf.get());
    std::ostream out(&s.out_buf);
    s.summary = ccs::run_serve(in, out, s.err, s.opts);
  });
  // Ready means answering: one stats line round trip.
  write_all(s.fds[1], "{\"op\":\"stats\",\"id\":\"warmup\"}\n");
  std::vector<std::string> lines;
  std::vector<double> ms;
  const Clock::time_point t0 = Clock::now();
  while (lines.empty()) {
    if (ms_since(t0) > 10'000) {
      // The destructor does not run for a throwing constructor.
      ::close(s.fds[1]);
      s.loop.join();
      ::close(s.fds[0]);
      throw std::runtime_error("serve loop did not answer its warm-up");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    s.out_buf.take(lines, ms);
  }
}

OpenLoop::~OpenLoop() {
  State& s = *state_;
  if (s.fds[1] >= 0) ::close(s.fds[1]);
  if (s.loop.joinable()) s.loop.join();
  ::close(s.fds[0]);
}

OpenLoopResult OpenLoop::run(const std::vector<ServeLine>& lines,
                             double rate_per_s) {
  State& s = *state_;
  OpenLoopResult r;
  r.due_ms.reserve(lines.size());
  r.sent_ms.reserve(lines.size());
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     static_cast<double>(i) / rate_per_s));
    std::this_thread::sleep_until(due);
    r.due_ms.push_back(
        std::chrono::duration<double, std::milli>(due - s.t0).count());
    r.sent_ms.push_back(ms_since(s.t0));
    write_all(s.fds[1], lines[i].text + "\n");
  }
  ::close(s.fds[1]);
  s.fds[1] = -1;
  s.loop.join();
  r.summary = s.summary;
  s.out_buf.take(r.responses, r.response_ms);
  return r;
}

SaturatedResult saturated_serve(const std::vector<ServeLine>& lines,
                                ccs::ServeOptions opts) {
  std::string input;
  for (const ServeLine& l : lines) input += l.text + "\n";
  opts.queue_depth = lines.size() + 1;
  std::istringstream in(input);
  std::ostringstream out;
  std::ostringstream err;
  SaturatedResult r;
  const Clock::time_point t0 = Clock::now();
  (void)ccs::run_serve(in, out, err, opts);
  r.wall_ms = ms_since(t0);
  std::istringstream written(out.str());
  for (std::string line; std::getline(written, line);)
    r.responses.push_back(std::move(line));
  return r;
}

}  // namespace perfbench

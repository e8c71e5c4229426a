// ccsched — user-facing error type.
//
// Per Core Guidelines I.10, failures to perform a requested task (malformed
// input graphs, unparsable files, infeasible requests) are reported with
// exceptions.  ccs::Error is the base for all such conditions; it is distinct
// from ContractViolation, which flags API misuse.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ccs {

/// Base class for all recoverable ccsched errors (bad input, infeasible
/// request, parse failure).
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what_arg) : std::runtime_error(what_arg) {}
};

/// An input CSDFG violates a structural requirement (e.g. a cycle with zero
/// total delay, an edge endpoint out of range, a non-positive execution time).
class GraphError : public Error {
public:
  using Error::Error;
};

/// A legal CSDFG whose start-up horizon — the zero-delay critical path,
/// Csdfg::startup_horizon() — does not fit in the int control steps of a
/// schedule table.  Reported as the stable diagnostic CCS-G009.
class HorizonError : public GraphError {
public:
  using GraphError::GraphError;
  static constexpr std::string_view kCode = "CCS-G009";
};

/// The stable diagnostic code `e` stands for: HorizonError::kCode for a
/// HorizonError, `fallback` for anything else.
inline std::string_view diagnostic_code(const std::exception& e,
                                        std::string_view fallback) {
  return dynamic_cast<const HorizonError*>(&e) != nullptr ? HorizonError::kCode
                                                          : fallback;
}

/// An architecture description is malformed (disconnected topology, bad
/// dimensions, unknown processor index).
class ArchitectureError : public Error {
public:
  using Error::Error;
};

/// A textual artifact (graph file, architecture spec) failed to parse.
///
/// Carries the structured (line, message) pair so the diagnostics engine
/// (src/analysis) can attach a source span; what() renders the classic
/// "line N: message" string for plain-text consumers.
class ParseError : public Error {
public:
  /// Whole-artifact failure with no line attribution (line() == 0).
  explicit ParseError(const std::string& message)
      : Error(message), detail_(message) {}

  /// Failure at 1-based `line` of the parsed artifact.
  ParseError(std::size_t line, const std::string& message)
      : Error("line " + std::to_string(line) + ": " + message),
        line_(line),
        detail_(message) {}

  /// 1-based source line of the failure; 0 when unattributed.
  [[nodiscard]] std::size_t line() const noexcept { return line_; }

  /// The bare message, without the "line N: " prefix what() adds.
  [[nodiscard]] const std::string& detail() const noexcept { return detail_; }

private:
  std::size_t line_ = 0;
  std::string detail_;
};

/// A scheduling request cannot be satisfied (e.g. no feasible placement under
/// the requested policy).
class ScheduleError : public Error {
public:
  using Error::Error;
};

}  // namespace ccs

// Open-loop load for an in-process `run_serve`: one generator thread
// writes request lines into a pipe at a fixed offered rate while the serve
// loop reads the other end; every response line is timestamped as the
// service writes it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "serve/service.hpp"

namespace perfbench {

struct OpenLoopResult {
  std::vector<std::string> responses;  ///< In the order the service wrote them.
  std::vector<double> response_ms;     ///< Write time of each response.
  std::vector<double> due_ms;          ///< When each line was due to be sent.
  std::vector<double> sent_ms;         ///< When its write began.
  ccs::ServeSummary summary;
};

/// A started serve loop, ready for requests: it has answered one `stats`
/// warm-up line, which is not part of any measurement.
class OpenLoop {
public:
  explicit OpenLoop(const ccs::ServeOptions& opts);
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Sends `lines` at `rate_per_s`, closes the input and waits until the
  /// loop has drained and returned.  Call at most once.
  OpenLoopResult run(const std::vector<ServeLine>& lines, double rate_per_s);

private:
  struct State;
  std::unique_ptr<State> state_;
};

struct SaturatedResult {
  std::vector<std::string> responses;  ///< In the order the service wrote them.
  double wall_ms = 0;                  ///< run_serve's wall time.
};

/// Feeds `lines` to a serve loop with `opts` as fast as it reads them.
/// The queue holds every line, so none is shed.
[[nodiscard]] SaturatedResult saturated_serve(
    const std::vector<ServeLine>& lines, ccs::ServeOptions opts);

}  // namespace perfbench

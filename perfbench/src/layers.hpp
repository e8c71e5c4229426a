// The traced request path: the benchmark sends a request again as the
// sequence of public layer calls Solver::solve (or the serve worker)
// makes, timing each call from outside the library.  Where one public
// call nests another, the nested call is repeated separately on the same
// inputs and the outer layer's self time is derived as the difference.
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "engine/solver.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Accumulated self time per layer, in ms.  Fields marked "derived" are
/// an outer call's time minus its separately repeated nested calls.
struct LayerTimes {
  double parse = 0;          ///< io.parse: parse_csdfg
  double topology = 0;       ///< arch.topology: parse_topology
  double canon = 0;          ///< analysis.canon: canonicalize
  double cache_hit = 0;      ///< engine.cache.hit: try_cached hits (derived)
  double cache_miss = 0;     ///< engine.cache.miss: try_cached misses (derived)
  double cache_publish = 0;  ///< engine.cache.publish: publish (derived)
  double bounds = 0;         ///< analysis.bounds: compute_bounds
  double startup = 0;        ///< core.startup: start_up_schedule
  double compact = 0;        ///< core.compact: cyclo_compact (derived)
  double portfolio = 0;      ///< engine.portfolio: portfolio_compact (derived)
  double certify = 0;        ///< analysis.certify: certify_table (derived)
  double certify_bound = 0;  ///< analysis.certify_bound: cross-check
  double serve_codec = 0;    ///< io.serve_codec: request decode + render
  /// Time spent repeating nested calls; not part of the request path.
  double replay = 0;

  [[nodiscard]] double total() const {
    return parse + topology + canon + cache_hit + cache_miss +
           cache_publish + bounds + startup + compact + portfolio + certify +
           certify_bound + serve_codec;
  }
};

/// A traced solve of one request.  With `probe_cache` the request first
/// goes through Solver::try_cached (as both Solver::solve and the serve
/// worker do); on a miss the cold pipeline runs layer by layer and the
/// answer is published.  `canon_in_publish` says whether the publish
/// step's canonicalization is request-path work (serve's publish) or only
/// a nested repeat (Solver::solve reuses its probe's canonical form).
/// Returns the assembled response.
[[nodiscard]] ccs::SolveResponse traced_solve(const ccs::SolveRequest& request,
                                              bool canon_in_publish,
                                              LayerTimes& times);

/// A traced serve request line: decode, solve (as above) or refuse, and
/// render the response line, which is returned.
[[nodiscard]] std::string traced_serve_line(const std::string& line,
                                            LayerTimes& times);

}  // namespace perfbench

// Workload generation for the solve benchmark.  Everything here is a pure
// function of the workload seed: the program under test only ever sees
// the serialized graph text, machine specs and request lines built here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/solver.hpp"

namespace perfbench {

/// One distinct solve problem, as the front end receives it.
struct Problem {
  std::string label;       ///< "<graph>@<machine>", for messages.
  std::string graph_text;  ///< Serialized CSDFG.
  std::string arch;        ///< Machine spec in the CLI grammar.
  ccs::SolveMode mode = ccs::SolveMode::kSchedule;
  int jobs = 1;            ///< Portfolio workers (kPortfolio only).
};

/// A closed-loop workload: distinct problems plus one seeded pass order.
struct ClosedCorpus {
  std::vector<Problem> problems;
  std::vector<std::size_t> order;  ///< A permutation of problem indices.
};

/// The paper's traffic: 9 graphs x 5 paper machines, portfolio, jobs=1.
[[nodiscard]] ClosedCorpus paper_portfolio_corpus(std::uint64_t seed);

/// Generator seed of the random-schedule graph population.
inline constexpr std::uint64_t kRandomPopulationSeed = 1995;

/// 50 random 16-40-node graphs on 16-PE machines, schedule mode; `seed`
/// sets the request order.
[[nodiscard]] ClosedCorpus random_schedule_corpus(std::uint64_t seed);

/// What a serve-mixed request line exercises, and so how it must be
/// answered.
enum class LineKind {
  kCold,       ///< schedule solve of a graph not sent before
  kPortfolio,  ///< portfolio solve (jobs=2) of a graph not sent before
  kReplay,     ///< byte-identical graph of an earlier line (tier-1 hit)
  kRelabel,    ///< isomorphic relabeling of an earlier graph (tier-2 hit)
  kMalformed,  ///< truncated JSON: refused CCS-E001
  kExpired,    ///< deadline_ms <= 0: refused CCS-E003
  kOversized,  ///< longer than the line cap: refused CCS-E001
};

[[nodiscard]] const char* line_kind_name(LineKind kind);

struct ServeLine {
  LineKind kind = LineKind::kCold;
  std::string text;        ///< The request line, without its newline.
  std::string id;          ///< The request id the response must echo.
  int problem = -1;        ///< Distinct problem index (solve lines only).
  std::string graph_text;  ///< The graph as sent (solve lines only).
};

struct ServeCorpus {
  std::vector<Problem> problems;  ///< Distinct graph classes.
  std::vector<ServeLine> lines;
};

/// Request-line byte cap the serve loop runs with; oversized lines exceed
/// it, every other line stays well below it.
inline constexpr std::size_t kServeMaxLineBytes = 16 * 1024;

/// `line_count` serve-mixed request lines drawn from `seed`.
[[nodiscard]] ServeCorpus serve_mixed_corpus(std::uint64_t seed,
                                             std::size_t line_count);

/// Builds the Solver request the serve loop would build for `p`.
[[nodiscard]] ccs::SolveRequest make_request(const Problem& p,
                                             const ccs::Csdfg& graph);

}  // namespace perfbench

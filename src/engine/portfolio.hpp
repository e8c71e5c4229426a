// ccsched — the parallel portfolio scheduling engine.
//
// Cyclo-compaction's configuration space (remap policy × slot selection ×
// start-up priority × pass budget) is small, cheap per point, and has no
// reliable a-priori winner: the paper's own experiments flip between
// configurations per workload and per architecture.  The portfolio engine
// embraces that: it evaluates N configured attempts on a worker pool and
// returns the best schedule found, with per-attempt provenance.
//
// Shared runs: Cyclo-Compact(G, z) is deterministic, so the engine runs
// each distinct trajectory once.  One start-up table is built per distinct
// StartUpOptions; attempts whose tables are equal and whose options differ
// only in pass count, start-up options and remap policy form one family
// and one run (CompactionRun), to the family's largest pass count.  A
// member with fewer passes takes the run's result after its own count.
// Without-relaxation members decide as the with-relaxation run does until
// its first pass that ends longer than it began; there they fork off
// (CompactionRun::fork) and rerun that pass under their own policy.  A
// family is the unit of parallel work.  Rows and winners are exactly those
// of running every attempt on its own.
//
// Attempt roster (portfolio_attempts):
//   * attempt 0 is exactly the caller's base configuration — the serial
//     driver.  The portfolio winner is therefore never worse than what
//     `cyclo_compact(g, topo, comm, base)` would have returned;
//   * attempts 1..k walk the systematic grid over {policy} × {selection} ×
//     {startup priority} × {default passes, |V| passes}, skipping the cell
//     the base configuration already occupies;
//   * attempts beyond the grid are seed-perturbed variants drawn from a
//     per-attempt deterministic Rng(seed, index) — more attempts never
//     reshuffle earlier ones.
//
// Determinism contract: for a fixed (graph, machine, options, seed), the
// winning schedule is bit-identical across runs and across --jobs values.
// The winner is the attempt with the smallest best length, ties broken by
// the smallest attempt index — never by completion order.  Incumbent
// pruning preserves this because a run is only preempted (via the
// RunBudget's BudgetStopToken hook) when the shared incumbent has already
// reached the schedule-length lower bound *and* belongs to a smaller
// attempt index than every member still needing passes: such members
// provably cannot win the tie-break, so cutting them short cannot change
// the winner.  The rows follow the jobs=1 rule at every --jobs value: an
// attempt after one whose best reached the lower bound reports "preempted"
// at its first pass boundary with its start-up table.  With a stateless
// user stop token (one that answers from the best length alone) and no
// deadline, every row is therefore identical across --jobs too.
//
// Observability: each start-up build, run and fork records into its own
// Tracer, MetricsRegistry and SpanProfiler, tagged with the attempt that
// owns it: a table's first user, a run's smallest member of the run's
// policy, a fork's smallest member.  After the join the engine merges them
// into the caller's ObsContext in attempt order, each attempt's lines in
// one seq space.  An attempt that owns no run or fork adds one
// attempt_derived event naming the run's owner and pass; a fork's stream
// opens with one marked "fork".  Then come the portfolio.* counters
// (docs/OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/diagnostics.hpp"
#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/cyclo_compaction.hpp"
#include "obs/obs.hpp"

namespace ccs {

/// Configuration of the portfolio engine.
struct PortfolioOptions {
  /// Worker threads; 1 runs every family inline on the caller's thread
  /// (still the same winner, by the determinism contract), 0 asks the
  /// hardware (std::thread::hardware_concurrency).
  int jobs = 1;
  /// Total attempts to run; 0 selects the full systematic grid (attempt 0
  /// plus every non-base grid cell).  Values beyond the grid add
  /// seed-perturbed attempts; values below it truncate (minimum 1).
  int attempts = 0;
  /// Seed for the perturbed tail.  Attempt i beyond the grid derives its
  /// configuration from Rng(seed, i) only — independent of every other
  /// attempt.
  std::uint64_t seed = 0;
  /// The serial driver's configuration; runs verbatim as attempt 0, and
  /// every grid attempt inherits its startup/budget fields (grid cells
  /// override policy, selection, priority, and passes).
  CycloCompactionOptions base;
  /// Certify the winning schedule from first principles
  /// (analysis/certify.hpp) before returning; findings land in
  /// PortfolioResult::certification.
  bool certify_winner = true;
};

/// One fully-specified portfolio attempt.
struct AttemptConfig {
  CycloCompactionOptions options;
  /// Stable human-readable tag, e.g. "base" or "strict/an-only/fifo/z=v"
  /// or "seed#25/relax/bidir/mobility/z=17".
  std::string label;
};

/// Provenance of one attempt, in attempt order.
struct AttemptOutcome {
  std::string label;
  /// Best schedule length the attempt reached before finishing or being
  /// preempted.
  int length = 0;
  int startup_length = 0;
  /// Pass that first reached `length` (0 = the start-up schedule).
  int best_pass = 0;
  /// CycloCompactionResult::stop_reason ("" when the attempt ran out its
  /// pass count).
  std::string stop_reason;
  /// True when the incumbent preempted this attempt ("preempted").
  bool pruned = false;
  /// True for the winning attempt.
  bool winner = false;
  /// Remap cost accounting of this attempt's run (API v2): occupancy
  /// probes and Lemma 4.2 anticipation evaluations (see RemapStats).
  long long remap_slots_scanned = 0;
  long long an_evaluations = 0;
  /// Always "incremental" (CycloCompactionResult::backend); kept until the
  /// next change to the committed benchmark rig.
  std::string engine_backend;
};

/// The portfolio's answer.
struct PortfolioResult {
  /// The winning run, in full (schedule, retimed graph, retiming, trace).
  CycloCompactionResult winner;
  std::size_t winner_attempt = 0;
  std::string winner_label;
  /// Attempt 0's best length — what the serial driver would have returned.
  /// winner.best.length() <= serial_length always.
  int serial_length = 0;
  /// The schedule-length lower bound the pruning logic used: the
  /// retiming-invariant composite of the static bound passes
  /// (analysis/bounds.hpp) — sound for every attempt because
  /// cyclo-compaction schedules retimed graphs.  Equals
  /// max(1, bound.value).
  int lower_bound = 0;
  /// Full per-pass provenance: every applicable CCS-B bound with its
  /// witness, plus the invariant/local composites and dominant codes.
  CompositeBound bound;
  /// Result of certifying the winner (true when certify_winner is off —
  /// nothing failed).
  bool certified = true;
  /// Certifier findings for the winner (empty when certify_winner is off).
  DiagnosticBag certification;
  /// One row per attempt, index-aligned with the roster.
  std::vector<AttemptOutcome> attempts;
};

/// Expands `opt` into the deterministic attempt roster described above.
/// Pure: depends only on |V| (for the pass-count variants) and `opt`.
[[nodiscard]] std::vector<AttemptConfig> portfolio_attempts(
    const Csdfg& g, const PortfolioOptions& opt);

/// Runs the portfolio on `opt.jobs` workers and returns the best attempt.
/// Deterministic winner (see the contract above); throws GraphError if `g`
/// is illegal, and rethrows the first exception a start-up build raised,
/// else the first (by smallest member) any family's run raised.  `obs` receives merged metrics, attempt-tagged trace
/// lines in attempt order, the portfolio.* counters/gauges, and the
/// time.portfolio timer.
[[nodiscard]] PortfolioResult portfolio_compact(
    const Csdfg& g, const Topology& topo, const CommModel& comm,
    const PortfolioOptions& opt = {}, const ObsContext& obs = {});

}  // namespace ccs

// ccsched — the stable library facade.
//
// PRs 1–4 each grew their own entry points (cyclo_compact, certify_*,
// repair_schedule, and now portfolio_compact), every one with its own
// options struct and its own failure convention — some throw, some return
// report objects, some write diagnostics.  The Solver collapses all of
// them behind one request/response pair:
//
//     ccs::Solver solver;
//     ccs::SolveRequest req;
//     req.graph = ccs::parse_csdfg(text);
//     req.arch = "mesh 2 2";
//     ccs::SolveResponse res = solver.solve(req);
//     if (res.ok()) use(*res.schedule);
//
// Error contract (docs/API.md): solve() does not throw.  Anything that
// would have surfaced as a GraphError / ArchitectureError / ParseError /
// ScheduleError becomes a CCS-E001 diagnostic in SolveResponse::
// diagnostics and status kInvalidRequest; a request that is well-formed
// but has no certified answer (an all-dead machine under kRepair) is
// CCS-E002 / kInfeasible; a schedule that was produced but failed
// certification is kUncertified with the certifier's CCS-S findings in
// the same bag.  The bag is always finalized and renderable.
//
// Include via the umbrella header src/ccsched.hpp, which also defines
// CCSCHED_API_VERSION.  The request/response field set may grow within a
// version; it only shrinks or changes meaning when the version bumps.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/certify.hpp"
#include "analysis/diagnostics.hpp"
#include "arch/topology.hpp"
#include "core/csdfg.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/retiming.hpp"
#include "core/schedule.hpp"
#include "engine/portfolio.hpp"
#include "obs/obs.hpp"

namespace ccs {

/// What the solver should do with the request.
enum class SolveMode {
  /// Start-up list schedule only (Section 3.1), no compaction.
  kStartup,
  /// The serial cyclo-compaction driver (Section 4) — the default.
  kSchedule,
  /// Iterative modulo scheduling baseline (no --speeds support).
  kModulo,
  /// The parallel portfolio engine (engine/portfolio.hpp).
  kPortfolio,
  /// Certify a caller-supplied schedule instead of producing one.
  kCertify,
  /// Repair the schedule against a fault spec (robust/repair.hpp).
  kRepair,
};

/// How the solve ended.
enum class SolveStatus {
  /// A schedule was produced (and certified, when requested).
  kOk,
  /// The request itself is unusable: illegal graph, malformed architecture
  /// spec or fault spec, unsupported option combination (CCS-E001).
  kInvalidRequest,
  /// The request is well-formed but provably has no answer, e.g. a fault
  /// plan that kills every processor (CCS-E002).
  kInfeasible,
  /// A schedule was produced but failed certification; the certifier's
  /// findings are in the diagnostics bag.
  kUncertified,
};

[[nodiscard]] std::string_view solve_status_name(SolveStatus status);

/// Everything the solver needs, in one struct.  Fields irrelevant to the
/// selected mode are ignored.
struct SolveRequest {
  /// The task graph.  Required.
  Csdfg graph{"g"};
  /// Architecture spec in the CLI grammar ("mesh 2 2", "hypercube 3",
  /// "custom 4 0-1 1-2 ..."), used when `topology` is not set.
  std::string arch;
  /// Explicit machine; wins over `arch` when set.
  std::optional<Topology> topology;
  SolveMode mode = SolveMode::kSchedule;
  /// Driver configuration (policy, selection, passes, startup, budget) for
  /// kStartup / kSchedule / kRepair, and the portfolio's base config.
  CycloCompactionOptions options;
  /// Portfolio knobs for kPortfolio; `portfolio.base` is ignored — the
  /// request's `options` field is the base configuration.
  PortfolioOptions portfolio;
  /// kCertify: the schedule to check.
  std::optional<ScheduleTable> schedule;
  /// kRepair: fault-spec text (docs/ROBUSTNESS.md grammar).
  std::string faults;
  /// Certify whatever schedule the solve produces (kCertify always does).
  bool certify = true;
  CertifyOptions certify_options;
};

/// The solver's answer.  `diagnostics` is always finalized; on kOk it may
/// still carry notes/warnings (e.g. lenient fault-spec parse notes).
struct SolveResponse {
  SolveStatus status = SolveStatus::kInvalidRequest;
  DiagnosticBag diagnostics;
  /// The graph the schedule satisfies (retimed by compaction / repair).
  Csdfg graph{"g"};
  /// Total retiming from the request's graph to `graph`.
  Retiming retiming{0};
  /// The produced (or, for kCertify, echoed) schedule.
  std::optional<ScheduleTable> schedule;
  /// The machine the schedule runs on (the reduced machine for kRepair).
  std::optional<Topology> machine;
  int startup_length = 0;
  int best_length = 0;
  /// CycloCompactionResult::stop_reason for budgeted runs.
  std::string stop_reason;
  /// True when the schedule was certified (vacuously true when
  /// certification was not requested).
  bool certified = false;
  /// Static composite lower bound for (request.graph, machine): the
  /// retiming-invariant CCS-B composite (analysis/bounds.hpp), so it holds
  /// for the retimed schedules compaction produces.  0 when no schedule
  /// was produced, and for kRepair (the machine shrinks mid-solve).
  int lower_bound = 0;
  /// best_length - lower_bound, or -1 when lower_bound is unknown.  A gap
  /// of 0 means no schedule on this machine can be shorter.
  int gap = -1;
  /// True when the schedule is certified AND gap == 0: the response is
  /// provably optimal, with the winning CCS-B pass as the certificate.
  bool optimal = false;
  /// True when the answer was served from the SolveCache: a prior
  /// certified solve of an isomorphic problem was translated through the
  /// permutation witness and re-certified (CCS-S016) against this
  /// request's graph.  Byte-identical to the cold answer modulo the
  /// witness permutation.
  bool cache_hit = false;
  /// Canonical 128-bit graph fingerprint (analysis/canon.hpp) as 32 hex
  /// digits, filled whenever the request was cacheable.  Equal across all
  /// attribute-isomorphic relabelings of the graph.
  std::string fingerprint;
  /// kPortfolio: per-attempt provenance and the winner's identity.
  std::vector<AttemptOutcome> attempts;
  int winner_attempt = -1;
  std::string winner_label;
  /// kRepair: the ladder rung that produced the schedule, and the machine
  /// PE -> original PE mapping.
  std::string repair_rung;
  std::vector<PeId> pe_map;
  /// Remap cost accounting (API v2, additive).  For kSchedule the run's
  /// totals; for kPortfolio the winning attempt's totals (deterministic
  /// across --jobs, like the winner itself).  `remap_slots_scanned` counts
  /// occupancy probes (64-step bitset words); `an_evaluations` counts
  /// Lemma 4.2 anticipation evaluations.  Both 0 for modes that never
  /// remap (kStartup, kCertify, kModulo).
  long long remap_slots_scanned = 0;
  long long an_evaluations = 0;
  /// "incremental" when a remap ran, empty otherwise.  RemapEngine has one
  /// implementation since API v3; the field stays because the committed
  /// benchmark rig still writes it, and goes with the next change to it.
  std::string engine_backend;

  [[nodiscard]] bool ok() const noexcept { return status == SolveStatus::kOk; }
};

/// The facade.  Stateless apart from an optional observability context;
/// one Solver may serve many solve() calls, including concurrently (the
/// obs context is the caller's problem in that case — give each thread its
/// own, or none).  The SolveCache behind the facade is process-global and
/// mutex-guarded, so concurrent solve()/try_cached()/publish() calls from
/// any mix of Solver instances share one memo safely.
class Solver {
public:
  Solver() = default;
  explicit Solver(ObsContext obs) : obs_(obs) {}

  /// Executes the request.  Never throws (see the error contract above).
  [[nodiscard]] SolveResponse solve(const SolveRequest& request) const;

  /// Cache-only solve: answers from the SolveCache (tier-1 replay or
  /// tier-2 translate + CCS-S016 re-certification) without ever running
  /// the solver, or returns nullopt on a miss / an uncacheable request.
  /// Never throws.  The serve path probes this first so a deadline-
  /// pressured request can still collect a full certified answer in
  /// microseconds before the degradation ladder spends any budget.
  [[nodiscard]] std::optional<SolveResponse> try_cached(
      const SolveRequest& request) const;

  /// Publishes an externally produced certified response for `request`
  /// into the SolveCache, exactly as a cold solve() would have.  No-op
  /// (never throws) unless the request is cacheable and the response is
  /// ok + certified with a complete schedule.  The serve path uses this to
  /// share answers computed under a wall-clock budget (which solve()
  /// itself refuses to cache) after stripping the budget from `request`.
  void publish(const SolveRequest& request, const SolveResponse& res) const;

private:
  ObsContext obs_{};
};

}  // namespace ccs

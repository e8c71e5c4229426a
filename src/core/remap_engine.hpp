// ccsched — the incremental remap engine (API v2).
//
// The remapping phase (Definitions 4.2/4.3, Lemmas 4.2/4.3) is the hot path
// of cyclo-compaction: for every rotated task v, every candidate processor
// p_j and every target length the anticipation function
//
//   AN(v, p_j) = max(1, max_i { CE(u_i) + M(PE(u_i), p_j, c(e_i)) + 1
//                               - k_i * L_target })
//
// bounds the earliest feasible start step.  The v1 surface (core/remap.hpp)
// recomputed AN from scratch for every (node, processor, target) probe and
// walked the schedule grid cell by cell for every slot test.  RemapEngine
// keeps the state those probes consult *incrementally*:
//
//  * per-PE occupancy bitsets (one word per 64 control steps) make the
//    slot-free test a handful of word probes instead of a cell walk;
//  * per-node predecessor contributions to AN are cached once per remap
//    call, grouped by edge delay so a target change is a multiply-add, and
//    delta-updated as rotated tasks are placed — only a rotated node's own
//    edges can change a cached bound (docs/ALGORITHM.md derives this from
//    Lemma 4.2);
//  * flat SoA arrays (start step, PE, CE) replace the map-shaped table in
//    the scheduler inner loop, with an origin offset so the post-rotation
//    uniform shift is a single integer increment.
//
// Lifecycle (the api_redesign core):
//
//     RemapEngine engine(g, comm);           // backend defaults per build
//     engine.bind(startup_table);            // import a complete schedule
//     for (pass ...) {
//       auto rotated = engine.rotate();      // Def. 4.1 + retiming r(J)+=1
//       auto len = engine.remap(rotated, previous, policy, selection, obs);
//       if (len) engine.commit(); else { engine.rollback(); break; }
//     }
//     ScheduleTable best = engine.table();
//
// The naive path stays as the referee: RemapBackend::kNaive routes remap()
// through the preserved v1 code (the statics below) and re-imports the
// result, so the fast path can never silently change results — the two
// backends are placement-for-placement identical and the differential test
// (tests/test_remap_engine.cpp) plus the CCS-S certifier enforce it.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "arch/comm_model.hpp"
#include "core/csdfg.hpp"
#include "core/retiming.hpp"
#include "core/schedule.hpp"
#include "obs/obs.hpp"

namespace ccs {

/// Remapping policy of Definition 4.2.
enum class RemapPolicy {
  kWithoutRelaxation,  ///< Never end a pass longer than it started.
  kWithRelaxation,     ///< Allow intermediate growth (best-so-far elsewhere).
};

/// How the remapper picks among feasible (processor, step) slots.
enum class RemapSelection {
  /// Predecessor bound + successor bound + slot availability — every slot
  /// offered is feasible for the already-placed neighbors (default).
  kBidirectional,
  /// The paper's literal procedure: predecessor-side AN only; successor
  /// violations surface as a larger PSL afterwards.  Kept for the ablation
  /// bench (A1/A2 in DESIGN.md).
  kAnticipationOnly,
};

/// Result of one remapping attempt.
struct RemapResult {
  bool success = false;  ///< Every rotated task was placed.
  int length = 0;        ///< Final table length (occupied + PSL padding).
};

/// Which implementation backs a RemapEngine.
enum class RemapBackend {
  /// Bitset slot tests + delta-maintained AN caches (the default).
  kIncremental,
  /// The preserved v1 code path — the referee the fast path is certified
  /// against.  Placement-for-placement identical to kIncremental.
  kNaive,
};

/// The build's default backend: kIncremental unless the tree was configured
/// with -DCCSCHED_REMAP_BACKEND=naive.
[[nodiscard]] RemapBackend default_remap_backend() noexcept;

/// Stable name ("incremental" / "naive") for reports and SolveResponse.
[[nodiscard]] std::string_view remap_backend_name(RemapBackend backend) noexcept;

/// Parses a backend name; nullopt on anything else.
[[nodiscard]] std::optional<RemapBackend> parse_remap_backend(
    std::string_view name) noexcept;

/// Remap cost accounting, accumulated across every remap() call of one
/// engine (and mirrored into the remap.* counters when an ObsContext with
/// metrics is supplied).  `slots_scanned` counts occupancy probes — grid
/// cells inspected on the naive backend, 64-step bitset words on the
/// incremental one — so the ratio between backends is the slot-test
/// speedup.  `an_cache_hits` counts AN evaluations answered from the
/// delta-maintained cache (always 0 on the naive backend);
/// `bitset_probes` counts bitset word fetches (always 0 on naive).
struct RemapStats {
  long long slots_scanned = 0;
  long long an_evaluations = 0;
  long long an_cache_hits = 0;
  long long bitset_probes = 0;
};

/// The incremental remap engine.  One engine serves one (graph, machine)
/// compaction run: bind() imports the start-up schedule, then each pass is
/// rotate() / remap() / commit()-or-rollback().  All views (table(),
/// graph(), retiming(), length()) reflect the *working* state; rollback()
/// restores the last committed state wholesale.
///
/// Not thread-safe; give each portfolio attempt its own engine.
class RemapEngine {
 public:
  /// Captures the graph (structure + current delays) and the communication
  /// model.  The model must outlive the engine.
  RemapEngine(const Csdfg& g, const CommModel& comm,
              RemapBackend backend = default_remap_backend());

  /// Imports a complete schedule of the construction graph: machine shape
  /// (PE count, speeds, pipelining) and every placement.  Resets the
  /// engine's graph delays and retiming to the construction state and
  /// commits.  May be called again to restart from a different table.
  void bind(const ScheduleTable& table);

  /// Rotates the first row (Definition 4.1): returns the tasks with
  /// CB == 1 (ascending id), removes them, applies the retiming
  /// r(J) += 1 to the working graph, and shifts every remaining task one
  /// step earlier.  Throws GraphError (engine untouched) if the retiming
  /// would be illegal.  Mirrors rotate_first_row exactly.
  std::vector<NodeId> rotate();

  /// One full remapping pass per Definition 4.2 over the working state:
  /// tries target lengths previous_length - 1, previous_length, then (with
  /// relaxation) successively longer targets.  On success the working
  /// state holds the new complete schedule and its length is returned; on
  /// failure returns nullopt with the working state back at the
  /// post-rotation base.  Emits the same events / counters / spans as the
  /// v1 remap_rotated, plus remap.an_cache_hit / remap.bitset_probe.
  [[nodiscard]] std::optional<int> remap(const std::vector<NodeId>& rotated,
                                         int previous_length,
                                         RemapPolicy policy,
                                         RemapSelection selection,
                                         const ObsContext& obs = {});

  /// Accepts the working state as the new committed state.
  void commit();

  /// Discards the working state and restores the last committed one
  /// (placements, length, graph delays, retiming).  The cost accounting
  /// keeps the discarded work.
  void rollback();

  /// rollback(), and the cost accounting as it stood at the last commit:
  /// the engine is then exactly as it was right after that commit, as if
  /// nothing had run since.
  void revert();

  /// True once bind() has run.
  [[nodiscard]] bool bound() const noexcept { return bound_; }
  [[nodiscard]] RemapBackend backend() const noexcept { return backend_; }
  [[nodiscard]] const RemapStats& stats() const noexcept { return stats_; }

  /// Working schedule length.
  [[nodiscard]] int length() const noexcept { return length_; }

  /// Working graph (delays as rotated so far).
  [[nodiscard]] const Csdfg& graph() const noexcept { return graph_; }

  /// Total retiming from the construction graph to graph().
  [[nodiscard]] const Retiming& retiming() const noexcept { return retiming_; }

  /// Materializes the working state as a ScheduleTable (requires every
  /// task placed, i.e. after a successful remap()/bind()).
  [[nodiscard]] ScheduleTable table() const;

  // --- The preserved v1 procedures (the naive referee). -------------------
  //
  // These are the exact pre-engine implementations; the deprecated free
  // functions in core/remap.hpp forward here.  `tally`, when non-null,
  // accumulates the RemapStats the engine reports for the naive backend.

  /// Anticipation function AN(v, pe) at `target_length` (Lemma 4.2).
  [[nodiscard]] static int anticipation(const Csdfg& g,
                                        const ScheduleTable& table,
                                        const CommModel& comm, NodeId v,
                                        PeId pe, int target_length);

  /// Latest start step of v on `pe` under every placed successor.
  [[nodiscard]] static int latest_start(const Csdfg& g,
                                        const ScheduleTable& table,
                                        const CommModel& comm, NodeId v,
                                        PeId pe, int target_length);

  /// Places every task of `rotated` into `table` at `target_length`.
  [[nodiscard]] static RemapResult try_remap(
      const Csdfg& g, ScheduleTable& table, const CommModel& comm,
      const std::vector<NodeId>& rotated, int target_length,
      RemapSelection selection, const ObsContext& obs = {},
      RemapStats* tally = nullptr);

  /// One full v1 remapping pass (Definition 4.2) over a table copy.
  [[nodiscard]] static std::optional<ScheduleTable> remap_rotated(
      const Csdfg& g, const ScheduleTable& table, const CommModel& comm,
      const std::vector<NodeId>& rotated, int previous_length,
      RemapPolicy policy,
      RemapSelection selection = RemapSelection::kBidirectional,
      const ObsContext& obs = {}, RemapStats* tally = nullptr);

 private:
  /// A cached bound contribution group: every placed static neighbor with
  /// the same edge delay k, folded per candidate processor.
  struct KGroup {
    long long k = 0;
    std::vector<long long> per_pe;  ///< max (AN) / min (latest) fold.
  };
  /// Delta entry from a rotated predecessor placed mid-attempt.
  struct DynAn {
    long long base = 0;  ///< CE(u) + 1 at the placement.
    long long k = 0;
    PeId pe = 0;
    std::size_t vol = 0;  ///< Volume index into cost_.
  };
  /// Delta entry from a rotated successor placed mid-attempt.
  struct DynLat {
    long long cb = 0;  ///< CB(w) at the placement.
    long long k = 0;
    PeId pe = 0;
    std::size_t vol = 0;
  };
  /// Delta entry for the neighbor-communication tie-break.
  struct DynComm {
    PeId pe = 0;
    std::size_t vol = 0;
    bool incoming = false;  ///< True: placed node is a predecessor.
  };
  /// Everything rollback() restores.
  struct Snapshot {
    std::vector<unsigned char> placed;
    std::vector<PeId> pe;
    std::vector<int> cb_phys;
    std::vector<std::vector<std::uint64_t>> bits;
    std::vector<int> delays;
    Retiming retiming{0};
    int origin = 0;
    int length = 0;
    RemapStats stats;
  };

  // Geometry helpers (logical step = physical step - origin_).
  [[nodiscard]] int span_of(NodeId v, PeId pe) const noexcept;
  [[nodiscard]] int time_on(NodeId v, PeId pe) const noexcept;
  [[nodiscard]] int lcb(NodeId v) const noexcept;  ///< Logical CB.
  [[nodiscard]] int lce(NodeId v) const noexcept;  ///< Logical CE.
  [[nodiscard]] bool complete() const noexcept;
  [[nodiscard]] int occupied_logical() const noexcept;
  [[nodiscard]] CommCost cost_at(std::size_t vol_idx, PeId from,
                                 PeId to) const noexcept;

  void import_table(const ScheduleTable& table);
  void place_working(NodeId v, PeId pe, int cb_logical);
  void unplace_working(NodeId v);
  void set_bits(PeId pe, int cb_phys, int span, bool value);

  /// First logical step >= earliest with `span` free steps on `pe`,
  /// counting one probe per bitset word examined.
  [[nodiscard]] int bitset_first_free(PeId pe, int earliest, int span,
                                      long long& probes) const;

  [[nodiscard]] std::optional<int> remap_incremental(
      const std::vector<NodeId>& rotated, int previous_length,
      RemapPolicy policy, RemapSelection selection, const ObsContext& obs);
  [[nodiscard]] std::optional<int> remap_naive(
      const std::vector<NodeId>& rotated, int previous_length,
      RemapPolicy policy, RemapSelection selection, const ObsContext& obs);

  void build_static_caches(const std::vector<NodeId>& rotated,
                           RemapSelection selection);
  [[nodiscard]] long long eval_an(NodeId v, PeId pe,
                                  long long target) const noexcept;
  [[nodiscard]] long long eval_latest(NodeId v, PeId pe,
                                      long long target) const noexcept;
  [[nodiscard]] long long eval_neighbor_comm(NodeId v,
                                             PeId pe) const noexcept;
  [[nodiscard]] int node_psl_bound_soa(NodeId v, PeId pe, int cb) const;
  [[nodiscard]] int min_feasible_soa() const;

  // Immutable after construction / bind().
  const CommModel* comm_;
  RemapBackend backend_;
  Csdfg base_graph_;  ///< Construction-time graph (pristine delays).
  std::size_t num_nodes_ = 0;
  std::size_t num_pes_ = 0;
  bool pipelined_ = false;
  bool bound_ = false;
  std::vector<int> times_;
  std::vector<int> speeds_;
  std::vector<std::size_t> evol_idx_;  ///< Edge -> volume index.
  std::vector<std::size_t> vols_;      ///< Sorted-unique edge volumes.
  std::vector<CommCost> cost_;         ///< [vol][from][to] flat.
  long long worst_edge_cost_ = 0;      ///< Worst single-edge transfer.

  // Working state.
  Csdfg graph_;  ///< Delays track the working retiming.
  Retiming retiming_{0};
  std::vector<unsigned char> placed_;
  std::vector<PeId> wpe_;
  std::vector<int> wcb_;  ///< Physical CB; logical = wcb_ - origin_.
  std::vector<std::vector<std::uint64_t>> bits_;  ///< Physical occupancy.
  int origin_ = 0;
  int length_ = 0;

  Snapshot committed_;
  RemapStats stats_;

  // Per-remap-call scratch (sized to the graph, reused across calls).
  std::vector<std::vector<KGroup>> an_static_;
  std::vector<std::vector<KGroup>> lat_static_;
  std::vector<std::vector<long long>> ncomm_static_;
  std::vector<std::vector<DynAn>> dyn_an_;
  std::vector<std::vector<DynLat>> dyn_lat_;
  std::vector<std::vector<DynComm>> dyn_comm_;
  std::vector<NodeId> undo_;
};

}  // namespace ccs

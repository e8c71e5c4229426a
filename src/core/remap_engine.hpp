// ccsched — the remap engine (API v3).
//
// The remapping phase (Definitions 4.2/4.3, Lemmas 4.2/4.3) is the hot path
// of cyclo-compaction: for every rotated task v, every candidate processor
// p_j and every target length the anticipation function
//
//   AN(v, p_j) = max(1, max_i { CE(u_i) + M(PE(u_i), p_j, c(e_i)) + 1
//                               - k_i * L_target })
//
// bounds the earliest feasible start step.  Recomputing AN from scratch for
// every (node, processor, target) probe and walking the schedule grid cell
// by cell for every slot test is what the v1 procedures did (they are kept
// as the test referee, tests/referee/).  RemapEngine keeps the state those
// probes consult *incrementally*:
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
// Lifecycle:
//
//     RemapEngine engine(g, comm);
//     engine.bind(startup_table);            // import a complete schedule
//     for (pass ...) {
//       auto rotated = engine.rotate();      // Def. 4.1 + retiming r(J)+=1
//       auto len = engine.remap(rotated, previous, policy, selection, obs);
//       if (len) engine.commit(); else { engine.rollback(); break; }
//     }
//     ScheduleTable best = engine.table();
//
// Schedule repair uses the same engine on a partial table: bind() the
// survivors, then place() the orphaned tasks at one target length.
#pragma once

#include <cstdint>
#include <optional>
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

/// Remap cost accounting, accumulated across every remap() / place() call
/// of one engine (and mirrored into the remap.* counters when an ObsContext
/// with metrics is supplied).  `slots_scanned` counts occupancy probes, one
/// per 64-step bitset word examined (the v1 referee counts grid cells for
/// the same query, so the ratio between the two is the slot-test speedup).
/// `an_cache_hits` counts AN evaluations answered from the delta-maintained
/// cache; `bitset_probes` counts bitset word fetches.
struct RemapStats {
  long long slots_scanned = 0;
  long long an_evaluations = 0;
  long long an_cache_hits = 0;
  long long bitset_probes = 0;
};

/// The remap engine.  One engine serves one (graph, machine) compaction
/// run: bind() imports the start-up schedule, then each pass is
/// rotate() / remap() / commit()-or-rollback().  All views (table(),
/// graph(), retiming(), length()) reflect the *working* state; rollback()
/// restores the last committed state wholesale.
///
/// Not thread-safe; give each portfolio attempt its own engine.
class RemapEngine {
 public:
  /// Captures the graph (structure + current delays) and the communication
  /// model.  The model must outlive the engine.
  RemapEngine(const Csdfg& g, const CommModel& comm);

  /// Imports a schedule of the construction graph: machine shape (PE
  /// count, speeds, pipelining) and every placement.  Resets the engine's
  /// graph delays and retiming to the construction state and commits.  The
  /// table may be partial: place() fills in the missing tasks, and rotate()
  /// needs them all placed.  May be called again to restart from a
  /// different table.
  void bind(const ScheduleTable& table);

  /// Rotates the first row (Definition 4.1): returns the tasks with
  /// CB == 1 (ascending id), removes them, applies the retiming
  /// r(J) += 1 to the working graph, and shifts every remaining task one
  /// step earlier.  Throws GraphError (engine untouched) if the retiming
  /// would be illegal.  Requires a complete working schedule.
  std::vector<NodeId> rotate();

  /// One full remapping pass per Definition 4.2 over the working state:
  /// tries target lengths previous_length - 1, previous_length, then (with
  /// relaxation) successively longer targets.  On success the working
  /// state holds the new complete schedule and its length is returned; on
  /// failure returns nullopt with the working state back at the
  /// post-rotation base.  Each target is one place() attempt; without
  /// relaxation a placement padded past previous_length is undone and the
  /// next target tried.  Emits the remap / remap.target spans, remap_target
  /// events and the time.remap timer around the attempts.
  [[nodiscard]] std::optional<int> remap(const std::vector<NodeId>& rotated,
                                         int previous_length,
                                         RemapPolicy policy,
                                         RemapSelection selection,
                                         const ObsContext& obs = {});

  /// One placement attempt at `target_length`: places every task of
  /// `nodes` — exactly the tasks the working state leaves unplaced — on
  /// the slot Lemma 4.2 and `selection` allow (smallest start step, then
  /// least communication to placed neighbors, then lowest PE; longer
  /// tasks first, ties by id), then compacts the leading rows and pads
  /// the length to the Lemma 4.3 PSL bound.  Returns the new working
  /// length, or nullopt with the working state exactly as before the call.
  /// Emits the remap.an span, remap_decision / psl_pad events and the
  /// an.evaluations, remap.* and psl.* counters.
  [[nodiscard]] std::optional<int> place(const std::vector<NodeId>& nodes,
                                         int target_length,
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
  [[nodiscard]] const RemapStats& stats() const noexcept { return stats_; }

  /// Working schedule length.
  [[nodiscard]] int length() const noexcept { return length_; }

  /// Working graph (delays as rotated so far).
  [[nodiscard]] const Csdfg& graph() const noexcept { return graph_; }

  /// Total retiming from the construction graph to graph().
  [[nodiscard]] const Retiming& retiming() const noexcept { return retiming_; }

  /// Materializes the working state as a ScheduleTable; tasks the working
  /// state has not placed (after rotate(), before a successful remap())
  /// stay unplaced.
  [[nodiscard]] ScheduleTable table() const;

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

  /// Builds the static bound caches of `nodes` and returns their
  /// placement order; place_prepared() may then run at any number of
  /// targets.
  [[nodiscard]] std::vector<NodeId> prepare(const std::vector<NodeId>& nodes,
                                            RemapSelection selection);
  /// place() after prepare(), with the order it returned.  On success the
  /// attempt stays undoable by undo_placement() until the next attempt.
  [[nodiscard]] std::optional<int> place_prepared(
      const std::vector<NodeId>& order, int target_length,
      RemapSelection selection, const ObsContext& obs);
  void undo_placement();
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
  std::vector<NodeId> undo_;  ///< Nodes placed by the current attempt.
  int undo_origin_ = 0;       ///< origin_ before the current attempt.
  int undo_length_ = 0;       ///< length_ before the current attempt.
};

}  // namespace ccs

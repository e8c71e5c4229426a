#include "core/cyclo_compaction.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/contracts.hpp"

namespace ccs {

namespace {

/// The pass count z of `options` on `g`: 0 selects 3 * |V|.
int pass_count(const CycloCompactionOptions& options, const Csdfg& g) {
  return options.passes > 0
             ? options.passes
             : 3 * static_cast<int>(std::max<std::size_t>(1, g.node_count()));
}

}  // namespace

CompactionRun::CompactionRun(const Csdfg& g, const CommModel& comm,
                             const ScheduleTable& startup,
                             const CycloCompactionOptions& options)
    : g_(&g),
      comm_(&comm),
      options_(options),
      passes_(pass_count(options, g)),
      result_{g,
              Retiming(g.node_count()),
              startup,
              startup,
              {},
              0,
              {},
              {},
              std::string(remap_backend_name(options.remap_backend))} {
  // Budget bookkeeping: all three stop conditions are evaluated at pass
  // boundaries so a budgeted run is a deterministic prefix of the
  // unbudgeted one (given a deterministic clock).
  if (options_.budget.deadline_ms > 0) {
    const SteadyBudgetClock steady;
    start_ms_ = (options_.budget.clock != nullptr ? *options_.budget.clock
                                                  : steady)
                    .now_ms();
  }
}

const char* CompactionRun::budget_stop() const {
  const RunBudget& budget = options_.budget;
  if (budget.max_passes > 0 && next_pass_ > budget.max_passes)
    return "max-passes";
  if (budget.deadline_ms > 0) {
    const SteadyBudgetClock steady;
    const BudgetClock& clock =
        budget.clock != nullptr ? *budget.clock : steady;
    if (clock.now_ms() - start_ms_ >= budget.deadline_ms) return "deadline";
  }
  if (budget.patience > 0 && stale_passes_ >= budget.patience)
    return "patience";
  if (budget.stop != nullptr &&
      budget.stop->stop_requested(result_.best.length()))
    return "preempted";
  return nullptr;
}

bool CompactionRun::admit(const ObsContext& obs) {
  CCS_EXPECTS(!admitted_);
  if (ended_ || next_pass_ > passes_) return false;
  if (const char* reason = budget_stop()) {
    result_.stop_reason = reason;
    ended_ = true;
    obs.count("compaction.budget_stops");
    obs.emit(BudgetEvent{reason, next_pass_, result_.best.length()});
    return false;
  }
  // The engine owns the working graph, retiming, and placements; each pass
  // is rotate / remap / commit, and a failed pass rolls back wholesale.
  if (!engine_) {
    engine_.emplace(*g_, *comm_, options_.remap_backend);
    engine_->bind(result_.startup);
  }
  if (engine_->length() <= 0) {
    ended_ = true;
    return false;
  }
  admitted_ = true;
  return true;
}

void CompactionRun::step(const ObsContext& obs, const GrowthHook& at_growth) {
  CCS_EXPECTS(admitted_);
  const int pass = next_pass_;
  const int previous_length = engine_->length();
  const ObsSpan pass_span = obs.span("compact.pass");
  obs.count("compaction.passes");
  obs.emit(PassStartEvent{pass, previous_length});

  const std::vector<NodeId> rotated = engine_->rotate();
  if (obs.metrics != nullptr)
    obs.metrics->add("rotation.nodes", static_cast<long long>(rotated.size()));
  if (obs.tracing()) obs.emit(RotationEvent{pass, rotated});

  const std::optional<int> remapped = engine_->remap(
      rotated, previous_length, options_.policy, options_.selection, obs);
  if (at_growth && remapped && *remapped > previous_length) {
    growing_ = true;
    at_growth(*this);
    growing_ = false;
  }
  admitted_ = false;
  ++next_pass_;
  result_.remap_stats = engine_->stats();
  if (!remapped) {
    // Without relaxation a pass that cannot keep the length is abandoned;
    // the configuration would repeat forever, so the loop ends (the paper:
    // "the remapping phase does not occur in this case").
    engine_->rollback();
    ended_ = true;
    result_.length_trace.push_back(previous_length);
    obs.count("compaction.rollbacks");
    obs.emit(RollbackEvent{pass, previous_length,
                           "no-placement-within-previous-length"});
    return;
  }

  engine_->commit();
  result_.length_trace.push_back(*remapped);

  const bool improved = *remapped < result_.best.length();
  if (improved) {
    result_.best = engine_->table();
    result_.retimed_graph = engine_->graph();
    result_.retiming = engine_->retiming();
    result_.best_pass = pass;
    stale_passes_ = 0;
    obs.count("compaction.improved_passes");
  } else {
    ++stale_passes_;
  }
  obs.emit(PassEndEvent{pass, *remapped, improved, result_.best.length()});
}

CompactionRun CompactionRun::fork(
    const CycloCompactionOptions& options) const {
  CCS_EXPECTS(growing_);
  CycloCompactionOptions same = options;
  same.policy = options_.policy;
  same.passes = options_.passes;
  same.budget.stop = options_.budget.stop;
  CCS_EXPECTS(same == options_);
  // The result is untouched until the pass commits; only the engine has
  // moved on, and revert() takes it back, remap stats included.
  CompactionRun twin(*this);
  twin.engine_->revert();
  twin.options_ = options;
  twin.passes_ = pass_count(options, *g_);
  twin.admitted_ = false;
  twin.growing_ = false;
  return twin;
}

CycloCompactionResult cyclo_compact(const Csdfg& g, const Topology& topo,
                                    const CommModel& comm,
                                    const CycloCompactionOptions& options,
                                    const ObsContext& obs) {
  g.require_legal();
  const ScopedTimer timer(obs.metrics, "time.compaction");
  const ObsSpan run_span = obs.span("compact");
  CompactionRun run(g, comm,
                    start_up_schedule(g, topo, comm, options.startup, obs),
                    options);
  while (run.admit(obs)) run.step(obs);
  CCS_ENSURES(run.result().best.length() <= run.result().startup.length());
  return run.take_result();
}

}  // namespace ccs

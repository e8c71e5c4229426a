#include "engine/portfolio.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "analysis/bounds.hpp"
#include "analysis/certify.hpp"
#include "arch/route_cache.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace ccs {

namespace {

/// Per-attempt seed: splitmix-style mixing so neighboring attempt indices
/// land far apart in the generator's state space.
std::uint64_t attempt_seed(std::uint64_t seed, std::size_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const char* policy_tag(RemapPolicy p) {
  return p == RemapPolicy::kWithRelaxation ? "relax" : "strict";
}

const char* selection_tag(RemapSelection s) {
  return s == RemapSelection::kBidirectional ? "bidir" : "an-only";
}

const char* priority_tag(PriorityRule r) {
  switch (r) {
    case PriorityRule::kCommunicationSensitive:
      return "pf";
    case PriorityRule::kMobilityOnly:
      return "mobility";
    case PriorityRule::kFifo:
      return "fifo";
  }
  return "?";
}

/// The fields a grid cell is allowed to vary, as a comparable tuple.
using GridCell = std::tuple<RemapPolicy, RemapSelection, PriorityRule, int>;

GridCell cell_of(const CycloCompactionOptions& o) {
  return {o.policy, o.selection, o.startup.priority, o.passes};
}

std::string grid_label(const CycloCompactionOptions& o, int default_passes) {
  std::ostringstream os;
  os << policy_tag(o.policy) << '/' << selection_tag(o.selection) << '/'
     << priority_tag(o.startup.priority) << '/'
     << (o.passes == default_passes ? "z=3v" : "z=v");
  return os.str();
}

/// Coordination block shared by every worker of one portfolio run.
struct SharedState {
  std::mutex mu;
  int incumbent_length = std::numeric_limits<int>::max();
  std::size_t incumbent_attempt = 0;

  /// Offers attempt `i`'s best length as the incumbent.
  void publish(int length, std::size_t i) {
    const std::scoped_lock lock(mu);
    if (length < incumbent_length ||
        (length == incumbent_length && i < incumbent_attempt)) {
      incumbent_length = length;
      incumbent_attempt = i;
    }
  }
};

/// True when two attempts differ at most in their pass count, so that one
/// compaction run serves both: the pass loop is deterministic, and a run of
/// z passes is the first z passes of any longer run.
bool same_run(const CycloCompactionOptions& a,
              const CycloCompactionOptions& b) {
  CycloCompactionOptions a_at_b = a;
  a_at_b.passes = b.passes;
  return a_at_b == b;
}

/// The attempts one compaction run serves, in ascending attempt order.
/// members[0] is the source: its worker runs the group, and its trace
/// carries the run.
struct Group {
  std::vector<std::size_t> members;
  std::vector<int> passes;  ///< Effective pass count of each member.
  std::size_t startup = 0;  ///< Index into the start-up memo.
};

using AttemptResults = std::vector<std::optional<CycloCompactionResult>>;

/// One group's run: the winner-preserving preemption rule (see
/// portfolio.hpp) plus the hand-out of each member's result at its own
/// pass count.  The run stops early only when (a) its best already sits on
/// the lower bound — no further pass can improve it — or (b) a
/// smaller-indexed attempt has published an incumbent at the lower bound
/// ahead of every member that still needs passes: those members lose every
/// possible tie-break, so their remaining passes are dead work.  Any
/// user-supplied token from the base configuration is honored as well.
class GroupRun final : public BudgetStopToken, public PassBoundaryObserver {
public:
  GroupRun(const Group& group, AttemptResults& results, SharedState& shared,
           int lower_bound, const BudgetStopToken* user)
      : group_(group),
        results_(results),
        shared_(shared),
        lower_bound_(lower_bound),
        user_(user),
        first_live_(group.members.front()) {}

  [[nodiscard]] bool stop_requested(int current_best) const override {
    if (user_ != nullptr && user_->stop_requested(current_best)) return true;
    if (current_best <= lower_bound_) return true;
    const std::scoped_lock lock(shared_.mu);
    return shared_.incumbent_length <= lower_bound_ &&
           shared_.incumbent_attempt < first_live_;
  }

  void at_boundary(int passes_done,
                   const CycloCompactionResult& so_far) override {
    for (std::size_t k = 0; k < group_.members.size(); ++k)
      if (group_.passes[k] == passes_done)
        take(group_.members[k], CycloCompactionResult(so_far));
  }

  /// Hands the run's final result to every member still waiting for it.
  void finish(CycloCompactionResult&& last) {
    std::vector<std::size_t> waiting;
    for (const std::size_t i : group_.members)
      if (!results_[i]) waiting.push_back(i);
    for (std::size_t w = 0; w < waiting.size(); ++w)
      take(waiting[w], w + 1 == waiting.size() ? std::move(last)
                                               : CycloCompactionResult(last));
  }

private:
  void take(std::size_t i, CycloCompactionResult&& result) {
    shared_.publish(result.best.length(), i);
    results_[i].emplace(std::move(result));
    // Members ascend, so the first one still waiting is the smallest.
    first_live_ = std::numeric_limits<std::size_t>::max();
    for (const std::size_t m : group_.members)
      if (!results_[m]) {
        first_live_ = m;
        break;
      }
  }

  const Group& group_;
  AttemptResults& results_;
  SharedState& shared_;
  int lower_bound_;
  const BudgetStopToken* user_;
  /// Smallest member index still waiting for passes.
  std::size_t first_live_;
};

/// Partitions the roster into groups (see same_run), ordered by source, and
/// lists the distinct start-up configurations in `startups`.
std::vector<Group> group_attempts(const Csdfg& g,
                                  const std::vector<AttemptConfig>& roster,
                                  std::vector<StartUpOptions>& startups) {
  const int default_passes =
      3 * static_cast<int>(std::max<std::size_t>(1, g.node_count()));
  std::vector<Group> groups;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    const CycloCompactionOptions& o = roster[i].options;
    const int passes = o.passes > 0 ? o.passes : default_passes;
    const auto same =
        std::find_if(groups.begin(), groups.end(), [&](const Group& group) {
          return same_run(roster[group.members.front()].options, o);
        });
    if (same != groups.end()) {
      same->members.push_back(i);
      same->passes.push_back(passes);
      continue;
    }
    auto memo = std::find(startups.begin(), startups.end(), o.startup);
    if (memo == startups.end()) memo = startups.insert(memo, o.startup);
    groups.push_back(
        {{i}, {passes}, static_cast<std::size_t>(memo - startups.begin())});
  }
  return groups;
}

/// The row of an attempt that an earlier attempt's lower-bound incumbent
/// preempts at its first pass boundary: it returns its start-up table.
AttemptOutcome preempted_row(const CycloCompactionResult& run) {
  AttemptOutcome row;
  row.length = run.startup.length();
  row.startup_length = run.startup.length();
  row.stop_reason = "preempted";
  row.pruned = true;
  row.engine_backend = run.backend;
  return row;
}

AttemptOutcome row_of(const CycloCompactionResult& run) {
  AttemptOutcome row;
  row.length = run.best.length();
  row.startup_length = run.startup.length();
  row.best_pass = run.best_pass;
  row.stop_reason = run.stop_reason;
  row.pruned = run.stop_reason == "preempted";
  row.remap_slots_scanned = run.remap_stats.slots_scanned;
  row.an_evaluations = run.remap_stats.an_evaluations;
  row.engine_backend = run.backend;
  return row;
}

/// Lower-case metric suffix of a CCS-B code: "CCS-B001" -> "b001".
std::string bound_metric_suffix(std::string_view code) {
  std::string suffix;
  for (char c : code.substr(code.rfind('-') + 1))
    suffix.push_back(static_cast<char>(std::tolower(c)));
  return suffix;
}

}  // namespace

std::vector<AttemptConfig> portfolio_attempts(const Csdfg& g,
                                              const PortfolioOptions& opt) {
  std::vector<AttemptConfig> roster;
  roster.push_back({opt.base, "base"});

  const int default_passes = opt.base.passes;
  const int v_passes =
      static_cast<int>(std::max<std::size_t>(1, g.node_count()));

  std::set<GridCell> seen{cell_of(opt.base)};
  const RemapPolicy policies[] = {RemapPolicy::kWithRelaxation,
                                  RemapPolicy::kWithoutRelaxation};
  const RemapSelection selections[] = {RemapSelection::kBidirectional,
                                       RemapSelection::kAnticipationOnly};
  const PriorityRule priorities[] = {PriorityRule::kCommunicationSensitive,
                                     PriorityRule::kMobilityOnly,
                                     PriorityRule::kFifo};
  for (const RemapPolicy policy : policies) {
    for (const RemapSelection selection : selections) {
      for (const PriorityRule priority : priorities) {
        for (const int passes : {default_passes, v_passes}) {
          CycloCompactionOptions o = opt.base;
          o.policy = policy;
          o.selection = selection;
          o.startup.priority = priority;
          o.passes = passes;
          if (!seen.insert(cell_of(o)).second) continue;
          roster.push_back({o, grid_label(o, default_passes)});
        }
      }
    }
  }

  const std::size_t target =
      opt.attempts > 0 ? static_cast<std::size_t>(opt.attempts)
                       : roster.size();
  if (target < roster.size()) {
    roster.resize(std::max<std::size_t>(1, target));
    return roster;
  }
  while (roster.size() < target) {
    // Seed-perturbed tail: each attempt's configuration is a pure function
    // of (seed, index), so growing the roster never reshuffles a prefix.
    const std::size_t index = roster.size();
    Rng rng(attempt_seed(opt.seed, index));
    CycloCompactionOptions o = opt.base;
    // Bias toward relaxation, the paper's recommended configuration.
    o.policy = rng.uniform_int(0, 3) == 0 ? RemapPolicy::kWithoutRelaxation
                                          : RemapPolicy::kWithRelaxation;
    o.selection = rng.uniform_int(0, 1) == 0
                      ? RemapSelection::kBidirectional
                      : RemapSelection::kAnticipationOnly;
    const PriorityRule priorities_tail[] = {
        PriorityRule::kCommunicationSensitive, PriorityRule::kMobilityOnly,
        PriorityRule::kFifo};
    o.startup.priority =
        priorities_tail[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    o.passes = rng.uniform_int(v_passes, 3 * v_passes);
    std::ostringstream label;
    label << "seed#" << index << '/' << policy_tag(o.policy) << '/'
          << selection_tag(o.selection) << '/'
          << priority_tag(o.startup.priority) << "/z=" << o.passes;
    roster.push_back({o, label.str()});
  }
  return roster;
}

PortfolioResult portfolio_compact(const Csdfg& g, const Topology& topo,
                                  const CommModel& comm,
                                  const PortfolioOptions& opt,
                                  const ObsContext& obs) {
  g.require_legal();
  const ScopedTimer timer(obs.metrics, "time.portfolio");
  const ObsSpan portfolio_span = obs.span("portfolio");

  const std::vector<AttemptConfig> roster = portfolio_attempts(g, opt);
  // The invariant composite (analysis/bounds.hpp): sound for any schedule
  // of any legal retiming of g, which is exactly what every attempt
  // produces.  The local composite would over-prune — attempts retime.
  const CompositeBound bound = compute_bounds(g, topo, comm, opt.base);
  const int lower_bound = std::max(1, bound.value);

  std::vector<StartUpOptions> startup_options;
  const std::vector<Group> groups =
      group_attempts(g, roster, startup_options);

  // One start-up table per distinct StartUpOptions, built by the first
  // group that needs it.
  struct StartUpMemo {
    std::once_flag once;
    std::optional<ScheduleTable> table;
  };
  std::vector<StartUpMemo> startups(startup_options.size());

  // Each group's run records into its own observability slot, so the hot
  // path never contends on the caller's; merged in attempt order below.
  struct Slot {
    std::vector<std::string> trace_lines;
    MetricsRegistry metrics;
    SpanProfiler profiler;
    std::exception_ptr error;
  };
  std::vector<Slot> slots(groups.size());
  AttemptResults results(roster.size());

  SharedState shared;
  std::atomic<std::size_t> next{0};
  const bool want_traces = obs.tracing();
  const bool want_metrics = obs.metrics != nullptr;
  const bool want_profile = obs.profiling();

  const auto run_group = [&](std::size_t k) {
    const Group& group = groups[k];
    const std::size_t source = group.members.front();
    Slot& slot = slots[k];
    try {
      ObsContext run_obs;
      if (want_metrics) run_obs.metrics = &slot.metrics;
      VectorSink sink;
      Tracer tracer(&sink);
      if (want_traces) {
        tracer.set_attempt(static_cast<int>(source));
        run_obs.tracer = &tracer;
      }
      if (want_profile) {
        slot.profiler.set_attempt(static_cast<int>(source));
        run_obs.profiler = &slot.profiler;
      }
      // The attempt span must close before sink.lines() is harvested, or
      // its span_end line would miss the attempt's trace stream.
      {
        const ObsSpan attempt_span = run_obs.span("portfolio.attempt");
        const ScopedTimer compaction_timer(run_obs.metrics,
                                           "time.compaction");
        const ObsSpan run_span = run_obs.span("compact");
        StartUpMemo& memo = startups[group.startup];
        std::call_once(memo.once, [&] {
          memo.table.emplace(start_up_schedule(
              g, topo, comm, startup_options[group.startup], run_obs));
        });

        CycloCompactionOptions options = roster[source].options;
        options.passes =
            *std::max_element(group.passes.begin(), group.passes.end());
        GroupRun run(group, results, shared, lower_bound,
                     options.budget.stop);
        options.budget.stop = &run;
        run.finish(compact_from(g, comm, *memo.table, options, run_obs, &run));
      }
      if (want_traces) slot.trace_lines = sink.lines();
    } catch (...) {
      slot.error = std::current_exception();
    }
  };

  const auto worker = [&] {
    while (true) {
      const std::size_t k = next.fetch_add(1);
      if (k >= groups.size()) break;
      run_group(k);
    }
  };

  int jobs = opt.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  const std::size_t pool_size = std::min<std::size_t>(
      static_cast<std::size_t>(jobs), groups.size());
  if (pool_size <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (std::size_t w = 0; w < pool_size; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // First failure by source index wins the rethrow — deterministic even
  // when several groups failed in parallel.
  for (const Slot& slot : slots)
    if (slot.error) std::rethrow_exception(slot.error);

  // The rows, in attempt order.  An attempt after one that reached the
  // lower bound gets the row jobs=1 gives it — preempted at its first pass
  // boundary — even where a shared run computed more for it.
  std::vector<AttemptOutcome> attempts;
  attempts.reserve(roster.size());
  std::vector<int> passes_run(roster.size(), 0);
  bool earlier_at_bound = false;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    AttemptOutcome row = earlier_at_bound ? preempted_row(*results[i])
                                          : row_of(*results[i]);
    if (!earlier_at_bound)
      passes_run[i] = static_cast<int>(results[i]->length_trace.size());
    row.label = roster[i].label;
    earlier_at_bound = earlier_at_bound || row.length <= lower_bound;
    attempts.push_back(std::move(row));
  }

  // The winner: smallest best length, ties to the smallest attempt index.
  // A corrected row never wins: the attempt that reached the bound before
  // it does.
  std::size_t winner_index = 0;
  for (std::size_t i = 1; i < attempts.size(); ++i)
    if (attempts[i].length < attempts[winner_index].length) winner_index = i;
  attempts[winner_index].winner = true;

  // Merge observability into the caller's context in attempt order, so the
  // merged stream and counters are independent of completion order.  A
  // derived attempt did no work of its own; it contributes one event naming
  // its source and the pass its result was taken after.
  std::vector<std::size_t> group_of(roster.size());
  for (std::size_t k = 0; k < groups.size(); ++k)
    for (const std::size_t i : groups[k].members) group_of[i] = k;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    const std::size_t source = groups[group_of[i]].members.front();
    if (source == i) {
      Slot& slot = slots[group_of[i]];
      if (want_metrics) obs.metrics->merge(slot.metrics);
      if (want_traces)
        for (const std::string& line : slot.trace_lines)
          obs.tracer->emit_raw(line);
      if (want_profile) obs.profiler->absorb(slot.profiler);
      continue;
    }
    if (!want_traces && !want_profile) continue;
    VectorSink sink;
    Tracer tracer(&sink);
    tracer.set_attempt(static_cast<int>(i));
    SpanProfiler profiler;
    profiler.set_attempt(static_cast<int>(i));
    const ObsContext derived_obs{want_traces ? &tracer : nullptr, nullptr,
                                 want_profile ? &profiler : nullptr};
    {
      const ObsSpan attempt_span = derived_obs.span("portfolio.attempt");
      derived_obs.emit(AttemptDerivedEvent{
          static_cast<int>(source), passes_run[i], attempts[i].length,
          attempts[i].stop_reason});
    }
    if (want_traces)
      for (const std::string& line : sink.lines()) obs.tracer->emit_raw(line);
    if (want_profile) obs.profiler->absorb(profiler);
  }

  const int serial_length = attempts[0].length;
  PortfolioResult result{std::move(*results[winner_index]),
                         0,  {}, 0, 0, {}, true, {}, {}};
  result.winner_attempt = winner_index;
  result.winner_label = roster[winner_index].label;
  result.serial_length = serial_length;
  result.lower_bound = lower_bound;
  result.bound = bound;
  result.attempts = std::move(attempts);

  CCS_ENSURES(result.winner.best.length() <= result.serial_length);

  if (opt.certify_winner) {
    result.certified = certify_table(
        result.winner.retimed_graph, result.winner.best, comm,
        "portfolio/" + result.winner_label, result.certification, {});
    result.certification.finalize();
  }

  obs.count("portfolio.attempts", static_cast<long long>(roster.size()));
  obs.count("portfolio.compaction_runs", static_cast<long long>(groups.size()));
  long long pruned = 0;
  for (const AttemptOutcome& row : result.attempts)
    if (row.pruned) ++pruned;
  if (pruned > 0) obs.count("portfolio.pruned", pruned);
  if (want_metrics) {
    obs.metrics->set("portfolio.jobs", static_cast<double>(jobs));
    obs.metrics->set("portfolio.winner_attempt",
                     static_cast<double>(winner_index));
    obs.metrics->set("portfolio.winner_length",
                     static_cast<double>(result.winner.best.length()));
    obs.metrics->set("portfolio.serial_length",
                     static_cast<double>(result.serial_length));
    obs.metrics->set("portfolio.lower_bound",
                     static_cast<double>(lower_bound));
    // Per-pass provenance: which derivation produced which floor.
    for (const BoundResult& part : bound.parts)
      obs.metrics->set("portfolio.bound." + bound_metric_suffix(part.code),
                       static_cast<double>(part.value));
    obs.metrics->set("portfolio.bound.local",
                     static_cast<double>(bound.local_value));
    obs.metrics->set(
        "portfolio.gap",
        static_cast<double>(result.winner.best.length() - lower_bound));
    // The winner's remap cost is deterministic across --jobs (preemption
    // only ever stops attempts that provably lose the tie-break).
    obs.metrics->set(
        "portfolio.winner_slots_scanned",
        static_cast<double>(result.winner.remap_stats.slots_scanned));
    obs.metrics->set(
        "portfolio.winner_an_evaluations",
        static_cast<double>(result.winner.remap_stats.an_evaluations));
    const RouteCache::Stats rc = RouteCache::global().stats();
    obs.metrics->set("portfolio.route_cache.hits",
                     static_cast<double>(rc.hits));
    obs.metrics->set("portfolio.route_cache.misses",
                     static_cast<double>(rc.misses));
  }

  return result;
}

}  // namespace ccs

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

/// True when two attempts on equal start-up tables follow one trajectory up
/// to their pass counts, or up to the first growth pass if their policies
/// differ: the pass loop is deterministic and never reads options.startup,
/// and the without-relaxation policy accepts exactly what the
/// with-relaxation one does until that pass (CompactionRun).
bool same_trajectory(const CycloCompactionOptions& a,
                     const CycloCompactionOptions& b) {
  CycloCompactionOptions a_as_b = a;
  a_as_b.passes = b.passes;
  a_as_b.startup = b.startup;
  a_as_b.policy = b.policy;
  return a_as_b == b;
}

/// One attempt a compaction run serves.
struct Member {
  std::size_t attempt = 0;
  int passes = 0;  ///< Effective pass count.
  RemapPolicy policy = RemapPolicy::kWithRelaxation;
};

/// The attempts one trajectory serves, in ascending attempt order.  One
/// run serves them all; if it has members of both policies, the
/// without-relaxation ones fork off at the first pass the with-relaxation
/// run grows.
struct Family {
  std::vector<Member> members;
  std::size_t table = 0;  ///< Index into the start-up tables.
  /// The attempt whose stream records the run: the smallest member of the
  /// run's policy.
  std::size_t owner = 0;
  RemapPolicy policy = RemapPolicy::kWithRelaxation;
  bool mixed = false;  ///< Members of both policies.
};

using AttemptResults = std::vector<std::optional<CycloCompactionResult>>;

/// What every run of one portfolio call shares.
struct RunContext {
  AttemptResults& results;
  /// Per attempt: the owner of the run its result was taken from.
  std::vector<std::size_t>& taken_from;
  SharedState& shared;
  int lower_bound;
  const BudgetStopToken* user;
};

/// The members one run still serves, and the winner-preserving preemption
/// rule (see portfolio.hpp) as the run's stop token.  The run stops early
/// only when (a) its best already sits on the lower bound — no further pass
/// can improve it — or (b) a smaller-indexed attempt has published an
/// incumbent at the lower bound ahead of every member still waiting: those
/// members lose every possible tie-break, so their remaining passes are
/// dead work.  Any user-supplied token from the base configuration is
/// honored as well.
class Branch final : public BudgetStopToken {
public:
  Branch(const RunContext& ctx, std::vector<Member> waiting,
         std::size_t owner)
      : ctx_(&ctx), waiting_(std::move(waiting)), owner_(owner) {}

  [[nodiscard]] bool stop_requested(int current_best) const override {
    if (ctx_->user != nullptr && ctx_->user->stop_requested(current_best))
      return true;
    if (current_best <= ctx_->lower_bound) return true;
    // Members ascend, so the first one still waiting is the smallest.
    const std::size_t first_live = waiting_.front().attempt;
    const std::scoped_lock lock(ctx_->shared.mu);
    return ctx_->shared.incumbent_length <= ctx_->lower_bound &&
           ctx_->shared.incumbent_attempt < first_live;
  }

  [[nodiscard]] bool waiting() const noexcept { return !waiting_.empty(); }
  [[nodiscard]] std::size_t owner() const noexcept { return owner_; }

  /// Hands `so_far` to every member whose pass count is `passes_done`.
  void handout(int passes_done, const CycloCompactionResult& so_far) {
    std::erase_if(waiting_, [&](const Member& m) {
      if (m.passes != passes_done) return false;
      take(m.attempt, CycloCompactionResult(so_far));
      return true;
    });
  }

  /// Hands the run's final result to every member still waiting for it.
  void finish(CycloCompactionResult&& last) {
    for (std::size_t w = 0; w < waiting_.size(); ++w)
      take(waiting_[w].attempt, w + 1 == waiting_.size()
                                    ? std::move(last)
                                    : CycloCompactionResult(last));
    waiting_.clear();
  }

  /// Removes and returns the waiting members of `policy`.
  std::vector<Member> release(RemapPolicy policy) {
    std::vector<Member> out;
    std::erase_if(waiting_, [&](const Member& m) {
      if (m.policy != policy) return false;
      out.push_back(m);
      return true;
    });
    return out;
  }

private:
  void take(std::size_t i, CycloCompactionResult&& result) {
    ctx_->shared.publish(result.best.length(), i);
    ctx_->results[i].emplace(std::move(result));
    ctx_->taken_from[i] = owner_;
  }

  const RunContext* ctx_;
  std::vector<Member> waiting_;
  std::size_t owner_;
};

/// Runs `run` for as long as `branch` has members waiting, handing each
/// its result at its own pass count.
void drive(CompactionRun& run, Branch& branch, const ObsContext& obs,
           const CompactionRun::GrowthHook& at_growth) {
  while (true) {
    branch.handout(run.passes_done(), run.result());
    if (!branch.waiting() || !run.admit(obs)) break;
    run.step(obs, at_growth);
  }
  branch.finish(run.take_result());
}

/// One attempt-tagged stream of observability output, recorded privately
/// so that runs never contend on the caller's context; merged in attempt
/// order after the join.
struct Slot {
  VectorSink sink;
  Tracer tracer;
  MetricsRegistry metrics;
  SpanProfiler profiler;

  /// A context recording into this slot for `attempt`, whose stream holds
  /// `first_seq` lines before this one; it has each part the caller's has.
  ObsContext open(const ObsContext& caller, std::size_t attempt,
                  std::size_t first_seq) {
    ObsContext obs;
    if (caller.metrics != nullptr) obs.metrics = &metrics;
    if (caller.tracing()) {
      tracer = Tracer(&sink, first_seq);
      tracer.set_attempt(static_cast<int>(attempt));
      obs.tracer = &tracer;
    }
    if (caller.profiling()) {
      profiler.set_attempt(static_cast<int>(attempt));
      obs.profiler = &profiler;
    }
    return obs;
  }

  /// Adds this slot's metrics, trace lines and spans to the caller's.
  void merge_into(const ObsContext& caller) const {
    if (caller.metrics != nullptr) caller.metrics->merge(metrics);
    if (caller.tracing())
      for (const std::string& line : sink.lines())
        caller.tracer->emit_raw(line);
    if (caller.profiling()) caller.profiler->absorb(profiler);
  }
};

/// Partitions the roster into families (see same_trajectory), ordered by
/// smallest member.  `table_of[i]` names attempt i's start-up table; equal
/// tables must share one name.
std::vector<Family> group_families(const Csdfg& g,
                                   const std::vector<AttemptConfig>& roster,
                                   const std::vector<std::size_t>& table_of) {
  const int default_passes =
      3 * static_cast<int>(std::max<std::size_t>(1, g.node_count()));
  std::vector<Family> families;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    const CycloCompactionOptions& o = roster[i].options;
    const Member member{i, o.passes > 0 ? o.passes : default_passes,
                        o.policy};
    const auto same =
        std::find_if(families.begin(), families.end(), [&](const Family& f) {
          return f.table == table_of[i] &&
                 same_trajectory(roster[f.members.front().attempt].options, o);
        });
    if (same != families.end()) {
      same->members.push_back(member);
    } else {
      families.push_back({{member}, table_of[i]});
    }
  }
  for (Family& f : families) {
    const auto has = [&](RemapPolicy p) {
      return std::any_of(f.members.begin(), f.members.end(),
                         [&](const Member& m) { return m.policy == p; });
    };
    const bool relaxed = has(RemapPolicy::kWithRelaxation);
    f.policy = relaxed ? RemapPolicy::kWithRelaxation
                       : RemapPolicy::kWithoutRelaxation;
    f.mixed = relaxed && has(RemapPolicy::kWithoutRelaxation);
    f.owner = std::find_if(f.members.begin(), f.members.end(),
                           [&](const Member& m) { return m.policy == f.policy; })
                  ->attempt;
  }
  return families;
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

  // One start-up table per distinct StartUpOptions, in order of first use.
  // Its trace and span lines go to the first attempt that uses it.
  std::vector<StartUpOptions> startup_options;
  std::vector<std::size_t> startup_of(roster.size());
  std::vector<std::size_t> first_user;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    const StartUpOptions& o = roster[i].options.startup;
    const auto it = std::find(startup_options.begin(), startup_options.end(), o);
    startup_of[i] = static_cast<std::size_t>(it - startup_options.begin());
    if (it == startup_options.end()) {
      startup_options.push_back(o);
      first_user.push_back(i);
    }
  }
  std::vector<Slot> startup_slots(startup_options.size());
  std::vector<ScheduleTable> tables;
  tables.reserve(startup_options.size());
  for (std::size_t k = 0; k < startup_options.size(); ++k)
    tables.push_back(start_up_schedule(
        g, topo, comm, startup_options[k],
        startup_slots[k].open(obs, first_user[k], 0)));
  // Per attempt: how many lines its stream holds before its run's.
  std::vector<std::size_t> first_seq(roster.size(), 0);
  for (std::size_t k = 0; k < first_user.size(); ++k)
    first_seq[first_user[k]] = startup_slots[k].sink.lines().size();

  // Attempts whose tables are equal share a trajectory, whatever their
  // priority rule: each table goes by the first one equal to it.
  std::vector<std::size_t> first_equal(tables.size());
  std::size_t distinct_tables = 0;
  for (std::size_t k = 0; k < tables.size(); ++k) {
    const auto begin = tables.begin();
    first_equal[k] = static_cast<std::size_t>(
        std::find(begin, begin + static_cast<long>(k), tables[k]) - begin);
    if (first_equal[k] == k) ++distinct_tables;
  }
  std::vector<std::size_t> table_of(roster.size());
  for (std::size_t i = 0; i < roster.size(); ++i)
    table_of[i] = first_equal[startup_of[i]];
  const std::vector<Family> families = group_families(g, roster, table_of);

  // Each family's run records into its own slot, and a forked
  // without-relaxation run into a second one.
  struct FamilySlots {
    Slot run;
    Slot fork;
    std::optional<std::size_t> fork_owner;
    std::exception_ptr error;
  };
  std::vector<FamilySlots> slots(families.size());
  AttemptResults results(roster.size());
  std::vector<std::size_t> taken_from(roster.size(), 0);
  SharedState shared;
  const RunContext ctx{results, taken_from, shared, lower_bound,
                       opt.base.budget.stop};
  std::atomic<std::size_t> next{0};

  const auto run_family = [&](std::size_t f) {
    const Family& family = families[f];
    FamilySlots& slot = slots[f];
    try {
      CycloCompactionOptions options = roster[family.owner].options;
      options.policy = family.policy;
      for (const Member& m : family.members)
        options.passes = std::max(options.passes, m.passes);
      Branch branch(ctx, family.members, family.owner);
      options.budget.stop = &branch;
      CompactionRun run(g, comm, tables[family.table], options);

      // The without-relaxation members leave at the first growth pass.
      std::optional<Branch> strict;
      std::optional<CompactionRun> twin;
      CompactionRun::GrowthHook fork;
      if (family.mixed) {
        fork = [&](const CompactionRun& grown) {
          std::vector<Member> leaving =
              branch.release(RemapPolicy::kWithoutRelaxation);
          if (leaving.empty()) return;
          const std::size_t owner = leaving.front().attempt;
          strict.emplace(ctx, std::move(leaving), owner);
          CycloCompactionOptions twin_options = options;
          twin_options.policy = RemapPolicy::kWithoutRelaxation;
          twin_options.budget.stop = &*strict;
          twin.emplace(grown.fork(twin_options));
        };
      }
      {
        const ObsContext run_obs =
            slot.run.open(obs, family.owner, first_seq[family.owner]);
        // The attempt span must close before the slot is merged, or its
        // span_end line would miss the attempt's trace stream.
        const ObsSpan attempt_span = run_obs.span("portfolio.attempt");
        const ScopedTimer compaction_timer(run_obs.metrics, "time.compaction");
        const ObsSpan run_span = run_obs.span("compact");
        drive(run, branch, run_obs, fork);
      }
      if (twin) {
        const std::size_t owner = strict->owner();
        slot.fork_owner = owner;
        const ObsContext twin_obs = slot.fork.open(obs, owner, first_seq[owner]);
        const ObsSpan attempt_span = twin_obs.span("portfolio.attempt");
        twin_obs.emit(AttemptDerivedEvent{
            static_cast<int>(family.owner), twin->passes_done(),
            twin->result().best.length(), "", true});
        const ScopedTimer compaction_timer(twin_obs.metrics, "time.compaction");
        const ObsSpan run_span = twin_obs.span("compact");
        drive(*twin, *strict, twin_obs, {});
      }
    } catch (...) {
      slot.error = std::current_exception();
    }
  };

  const auto worker = [&] {
    while (true) {
      const std::size_t f = next.fetch_add(1);
      if (f >= families.size()) break;
      run_family(f);
    }
  };

  int jobs = opt.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  const std::size_t pool_size = std::min<std::size_t>(
      static_cast<std::size_t>(jobs), families.size());
  if (pool_size <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (std::size_t w = 0; w < pool_size; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // First failure by family (ordered by smallest member) wins the rethrow
  // — deterministic even when several runs failed in parallel.
  for (const FamilySlots& slot : slots)
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
  // merged stream and counters are independent of completion order.  An
  // attempt's stream is its start-up lines, if it is a table's first user,
  // then the run it owns, or else one attempt_derived event naming the run
  // its result was taken from and after how many passes.
  std::vector<Slot*> owned(roster.size(), nullptr);
  for (FamilySlots& slot : slots) {
    owned[families[static_cast<std::size_t>(&slot - slots.data())].owner] =
        &slot.run;
    if (slot.fork_owner) owned[*slot.fork_owner] = &slot.fork;
  }
  for (std::size_t i = 0; i < roster.size(); ++i) {
    if (first_user[startup_of[i]] == i)
      startup_slots[startup_of[i]].merge_into(obs);
    if (owned[i] != nullptr) {
      owned[i]->merge_into(obs);
      continue;
    }
    if (!obs.tracing() && !obs.profiling()) continue;
    Slot derived;
    const ObsContext derived_obs =
        derived.open(ObsContext{obs.tracer, nullptr, obs.profiler}, i,
                     first_seq[i]);
    {
      const ObsSpan attempt_span = derived_obs.span("portfolio.attempt");
      derived_obs.emit(AttemptDerivedEvent{
          static_cast<int>(taken_from[i]), passes_run[i], attempts[i].length,
          attempts[i].stop_reason, false});
    }
    derived.merge_into(obs);
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
  obs.count("portfolio.startup_tables",
            static_cast<long long>(distinct_tables));
  obs.count("portfolio.compaction_runs",
            static_cast<long long>(families.size()));
  long long forks = 0;
  for (const FamilySlots& slot : slots)
    if (slot.fork_owner) ++forks;
  if (forks > 0) obs.count("portfolio.forks", forks);
  long long pruned = 0;
  for (const AttemptOutcome& row : result.attempts)
    if (row.pruned) ++pruned;
  if (pruned > 0) obs.count("portfolio.pruned", pruned);
  if (obs.metrics != nullptr) {
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

// Differential tests: portfolio_compact, which runs each distinct
// compaction trajectory once — attempts on equal start-up tables share a
// run, shorter attempts take their results from longer runs, and
// without-relaxation attempts fork off the with-relaxation run at its first
// growth pass — against the referee below, which runs every roster attempt as an
// independent cyclo_compact under the documented jobs=1 preemption rule.
// At jobs=1 every AttemptOutcome row and the winner's table, retimed graph
// and retiming must match; at jobs 2/4/8 the winner must too.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "engine/portfolio.hpp"
#include "io/schedule_format.hpp"
#include "io/text_format.hpp"
#include "obs/obs.hpp"
#include "obs/trace_reader.hpp"
#include "workloads/generator.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

/// The jobs=1 preemption rule of portfolio.hpp for one attempt: stop at a
/// pass boundary once the attempt's own best sits on the lower bound, or
/// from the start when an earlier attempt already reached it.  A user
/// token from the base configuration is asked first.
class RefereeStopToken final : public BudgetStopToken {
public:
  RefereeStopToken(const BudgetStopToken* user, int lower_bound,
                   bool earlier_at_bound)
      : user_(user),
        lower_bound_(lower_bound),
        earlier_at_bound_(earlier_at_bound) {}
  [[nodiscard]] bool stop_requested(int current_best) const override {
    if (user_ != nullptr && user_->stop_requested(current_best)) return true;
    return current_best <= lower_bound_ || earlier_at_bound_;
  }

private:
  const BudgetStopToken* user_;
  int lower_bound_;
  bool earlier_at_bound_;
};

std::string describe(const AttemptOutcome& r) {
  std::ostringstream os;
  os << r.label << " length=" << r.length << " startup=" << r.startup_length
     << " best_pass=" << r.best_pass << " stop='" << r.stop_reason
     << "' pruned=" << r.pruned << " winner=" << r.winner
     << " slots=" << r.remap_slots_scanned << " an=" << r.an_evaluations
     << " backend=" << r.engine_backend;
  return os.str();
}

std::string describe(const CycloCompactionResult& run) {
  std::ostringstream os;
  os << serialize_schedule(run.retimed_graph, run.best, &run.retiming)
     << "best_pass=" << run.best_pass << " stop='" << run.stop_reason
     << "' slots=" << run.remap_stats.slots_scanned
     << " an=" << run.remap_stats.an_evaluations << " trace=";
  for (const int length : run.length_trace) os << length << ',';
  return os.str();
}

struct RefereeResult {
  std::vector<AttemptOutcome> rows;
  std::size_t winner_attempt = 0;
  std::string winner;  ///< describe() of the winning run.
};

/// Every attempt run on its own, in attempt order.
RefereeResult referee_portfolio(const Csdfg& g, const Topology& topo,
                                const CommModel& comm,
                                const PortfolioOptions& opt) {
  const int lower_bound =
      std::max(1, compute_bounds(g, topo, comm, opt.base).value);
  std::vector<CycloCompactionResult> runs;
  RefereeResult out;
  int incumbent = std::numeric_limits<int>::max();
  for (const AttemptConfig& attempt : portfolio_attempts(g, opt)) {
    CycloCompactionOptions options = attempt.options;
    const RefereeStopToken token(options.budget.stop, lower_bound,
                                 incumbent <= lower_bound);
    options.budget.stop = &token;
    runs.push_back(cyclo_compact(g, topo, comm, options));
    const CycloCompactionResult& run = runs.back();
    AttemptOutcome row;
    row.label = attempt.label;
    row.length = run.best.length();
    row.startup_length = run.startup.length();
    row.best_pass = run.best_pass;
    row.stop_reason = run.stop_reason;
    row.pruned = run.stop_reason == "preempted";
    row.remap_slots_scanned = run.remap_stats.slots_scanned;
    row.an_evaluations = run.remap_stats.an_evaluations;
    row.engine_backend = run.backend;
    out.rows.push_back(row);
    incumbent = std::min(incumbent, row.length);
    if (row.length < out.rows[out.winner_attempt].length)
      out.winner_attempt = out.rows.size() - 1;
  }
  out.rows[out.winner_attempt].winner = true;
  out.winner = describe(runs[out.winner_attempt]);
  return out;
}

/// Rows and winner at jobs=1 equal the referee's; the winner (and, with a
/// stateless user token, every row) is the same at jobs 2/4/8.
void expect_matches_referee(const Csdfg& g, const Topology& topo,
                            PortfolioOptions opt, const std::string& label) {
  const StoreAndForwardModel comm(topo);
  opt.certify_winner = false;
  const RefereeResult want = referee_portfolio(g, topo, comm, opt);
  for (const int jobs : {1, 2, 4, 8}) {
    opt.jobs = jobs;
    const PortfolioResult got = portfolio_compact(g, topo, comm, opt);
    const std::string where =
        label + " on " + topo.name() + " jobs=" + std::to_string(jobs);
    EXPECT_EQ(got.winner_attempt, want.winner_attempt) << where;
    EXPECT_EQ(describe(got.winner), want.winner) << where;
    ASSERT_EQ(got.attempts.size(), want.rows.size()) << where;
    for (std::size_t i = 0; i < want.rows.size(); ++i)
      EXPECT_EQ(describe(got.attempts[i]), describe(want.rows[i]))
          << where << " attempt " << i;
  }
}

/// The library graphs at the sizes the paper-traffic benchmark uses.
std::vector<Csdfg> paper_graphs() {
  std::vector<Csdfg> graphs = {
      paper_example6(),  paper_example19(),      elliptic_filter(),
      lattice_filter(),  iir_biquad_cascade(4),  fir_filter(16),
      diffeq_solver(),   correlator(8)};
  std::ifstream in(std::string(CCS_EXAMPLES_DATA_DIR) + "/macroblock.csdfg");
  graphs.push_back(parse_csdfg(in));
  return graphs;
}

std::vector<Topology> paper_machines() {
  return {make_complete(8), make_linear_array(8), make_ring(8),
          make_mesh(4, 2), make_hypercube(3)};
}

Csdfg random_graph(std::uint64_t seed) {
  const std::size_t sizes[] = {6, 8, 12, 16, 24, 32};
  RandomDfgConfig cfg;
  cfg.num_nodes = sizes[seed % std::size(sizes)];
  cfg.num_layers = std::max<std::size_t>(3, cfg.num_nodes / 4);
  cfg.num_back_edges = std::max<std::size_t>(2, cfg.num_nodes / 4);
  cfg.max_time = 1 + static_cast<int>(seed % 4);
  cfg.max_delay = 1 + static_cast<int>(seed % 3);
  return random_csdfg(cfg, seed);
}

TEST(PortfolioReferee, PaperGraphsOnThePaperMachines) {
  for (const Csdfg& g : paper_graphs())
    for (const Topology& topo : paper_machines())
      expect_matches_referee(g, topo, {}, g.name());
}

TEST(PortfolioReferee, RandomGraphs) {
  const Topology machines[] = {make_mesh(2, 2), make_linear_array(4),
                               make_hypercube(3)};
  for (std::uint64_t seed = 1; seed <= 24; ++seed)
    expect_matches_referee(random_graph(seed), machines[seed % 3], {},
                           "random seed " + std::to_string(seed));
}

TEST(PortfolioReferee, SeedTailSharesRunsWithTheGrid) {
  PortfolioOptions opt;
  opt.attempts = 30;
  opt.seed = 7;
  for (const Csdfg& g : paper_graphs())
    expect_matches_referee(g, make_mesh(4, 2), opt, g.name() + " attempts=30");
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    opt.seed = seed;
    expect_matches_referee(random_graph(seed), make_ring(4), opt,
                           "random attempts=30 seed " + std::to_string(seed));
  }
}

TEST(PortfolioReferee, BasePassesBelowTheNodeCount) {
  // z=v is then the longer run of each pair, and the base cell's partner
  // comes second.
  PortfolioOptions opt;
  opt.base.passes = 5;
  for (const Csdfg& g : paper_graphs())
    expect_matches_referee(g, make_hypercube(3), opt, g.name() + " z=5");
  opt.base.passes = 3;
  opt.base.policy = RemapPolicy::kWithoutRelaxation;
  opt.base.selection = RemapSelection::kAnticipationOnly;
  opt.attempts = 30;
  for (const Csdfg& g : paper_graphs())
    expect_matches_referee(g, make_linear_array(8), opt,
                           g.name() + " strict base z=3");
}

TEST(PortfolioReferee, PatienceAndMaxPassesBudgets) {
  PortfolioOptions opt;
  opt.attempts = 30;
  opt.base.budget.patience = 4;
  for (const Csdfg& g : paper_graphs())
    expect_matches_referee(g, make_mesh(4, 2), opt, g.name() + " patience=4");
  opt.base.budget.patience = 0;
  opt.base.budget.max_passes = 10;
  for (const Csdfg& g : paper_graphs())
    expect_matches_referee(g, make_ring(8), opt, g.name() + " max_passes=10");
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    expect_matches_referee(random_graph(seed), make_mesh(2, 2), opt,
                           "random max_passes=10 seed " +
                               std::to_string(seed));
}

TEST(PortfolioReferee, UserStopToken) {
  // Stateless: asks only for the length, so every attempt that reaches it
  // stops at the next pass boundary wherever it runs.
  class StopAtLength final : public BudgetStopToken {
  public:
    explicit StopAtLength(int length) : length_(length) {}
    [[nodiscard]] bool stop_requested(int current_best) const override {
      return current_best <= length_;
    }

  private:
    int length_;
  };
  for (const Csdfg& g : paper_graphs()) {
    const Topology topo = make_mesh(4, 2);
    const StoreAndForwardModel comm(topo);
    const ScheduleTable startup = start_up_schedule(g, topo, comm);
    const StopAtLength stop(std::max(1, startup.length() - 2));
    PortfolioOptions opt;
    opt.attempts = 30;
    opt.base.budget.stop = &stop;
    expect_matches_referee(g, topo, opt, g.name() + " user token");
  }
}

/// How a jobs=1 portfolio run shared its work, read back from its counters
/// and its merged trace.
struct Sharing {
  long long tables = 0;  ///< portfolio.startup_tables
  long long runs = 0;    ///< portfolio.compaction_runs
  long long forks = 0;   ///< portfolio.forks
  /// Without-relaxation attempts that took every one of their passes from a
  /// with-relaxation run.
  int strict_derived_whole = 0;
  /// Forked runs whose first pass — the divergence pass — succeeded.
  int forks_continued = 0;
  /// Pass count each forked run took over, by the attempt owning it.
  std::map<long long, long long> fork_pass;
  /// Budget stops (reason, best length) after a fork, in the forked run or
  /// in the run it left.
  std::vector<std::pair<std::string, long long>> stops_after_fork;

  [[nodiscard]] bool stopped_after_fork(const std::string& reason) const {
    return std::any_of(stops_after_fork.begin(), stops_after_fork.end(),
                       [&](const auto& stop) { return stop.first == reason; });
  }
};

bool is_true(const TraceEvent& e, std::string_view key) {
  const TraceField* f = e.find(key);
  return f != nullptr && f->kind == TraceField::Kind::kBool &&
         f->text == "true";
}

Sharing sharing_of(const Csdfg& g, const Topology& topo,
                   PortfolioOptions opt) {
  const StoreAndForwardModel comm(topo);
  opt.jobs = 1;
  opt.certify_winner = false;
  VectorSink sink;
  Tracer tracer(&sink);
  MetricsRegistry metrics;
  (void)portfolio_compact(g, topo, comm, opt, {&tracer, &metrics});
  const std::vector<AttemptConfig> roster = portfolio_attempts(g, opt);
  const int default_passes =
      3 * static_cast<int>(std::max<std::size_t>(1, g.node_count()));
  const auto strict = [&](long long i) {
    return roster[static_cast<std::size_t>(i)].options.policy ==
           RemapPolicy::kWithoutRelaxation;
  };

  Sharing out;
  out.tables = metrics.counter("portfolio.startup_tables");
  out.runs = metrics.counter("portfolio.compaction_runs");
  out.forks = metrics.counter("portfolio.forks");
  std::string text;
  for (const std::string& line : sink.lines()) text += line + "\n";
  const std::vector<TraceEvent> events = parse_trace_jsonl(text).events;
  // Forks first: a run's stream comes before the stream of its fork.
  std::map<long long, long long> forked_from;  // run owner -> fork pass
  for (const TraceEvent& e : events) {
    long long attempt = 0;
    long long source = 0;
    long long pass = 0;
    if (is_true(e, "fork") && e.number("attempt", attempt) &&
        e.number("source", source) && e.number("pass", pass)) {
      out.fork_pass[attempt] = pass;
      forked_from[source] = pass;
    }
  }
  for (const TraceEvent& e : events) {
    long long attempt = 0;
    std::string kind;
    if (!e.number("attempt", attempt) || !e.string("kind", kind)) continue;
    long long pass = 0;
    (void)e.number("pass", pass);
    const auto fork = out.fork_pass.find(attempt);
    const auto left = forked_from.find(attempt);
    if (kind == "attempt_derived" && !is_true(e, "fork")) {
      long long source = 0;
      (void)e.number("source", source);
      const int passes =
          roster[static_cast<std::size_t>(attempt)].options.passes > 0
              ? roster[static_cast<std::size_t>(attempt)].options.passes
              : default_passes;
      if (strict(attempt) && !strict(source) && pass == passes)
        ++out.strict_derived_whole;
    } else if (kind == "pass_end" && fork != out.fork_pass.end() &&
               pass == fork->second + 1) {
      ++out.forks_continued;
    } else if (kind == "budget_exhausted" &&
               (fork != out.fork_pass.end() ||
                (left != forked_from.end() && pass > left->second + 1))) {
      std::string reason;
      long long best = 0;
      (void)e.string("reason", reason);
      (void)e.number("best_length", best);
      out.stops_after_fork.emplace_back(reason, best);
    }
  }
  return out;
}

TEST(PortfolioReferee, EqualStartUpTablesShareOneRun) {
  // Every priority rule gives elliptic and fir16 the same start-up table,
  // so the 24 attempts collapse to one trajectory per slot selection.
  for (const Csdfg& g : {elliptic_filter(), fir_filter(16)}) {
    for (const Topology& topo : paper_machines()) {
      const Sharing sharing = sharing_of(g, topo, {});
      EXPECT_EQ(sharing.tables, 1) << g.name() << " on " << topo.name();
      EXPECT_EQ(sharing.runs, 2) << g.name() << " on " << topo.name();
    }
    PortfolioOptions opt;
    opt.attempts = 30;
    opt.seed = 11;
    expect_matches_referee(g, make_ring(8), opt, g.name() + " attempts=30");
  }
}

TEST(PortfolioReferee, StrictAttemptsDerivedWholeFromARelaxedRun) {
  // A with-relaxation run that never grows within a without-relaxation
  // member's pass count hands that member its result whole.
  int covered = 0;
  for (const Csdfg& g : paper_graphs()) {
    for (const Topology& topo : paper_machines()) {
      if (sharing_of(g, topo, {}).strict_derived_whole == 0) continue;
      ++covered;
      expect_matches_referee(g, topo, {}, g.name() + " derived whole");
    }
  }
  EXPECT_GT(covered, 0);
}

/// The first random_graph seed whose portfolio on mesh 2x2 forks a
/// without-relaxation run that then succeeds at the divergence pass and
/// continues on its own.  Rare: the forked run usually rolls back there.
const std::vector<std::uint64_t>& seeds_with_continuing_forks() {
  static const std::vector<std::uint64_t> seeds = [] {
    std::vector<std::uint64_t> found;
    for (std::uint64_t seed = 1; seed <= 400 && found.empty(); ++seed)
      if (sharing_of(random_graph(seed), make_mesh(2, 2), {}).forks_continued >
          0)
        found.push_back(seed);
    return found;
  }();
  return seeds;
}

TEST(PortfolioReferee, ForkedStrictRunContinuesPastTheDivergencePass) {
  const std::vector<std::uint64_t>& seeds = seeds_with_continuing_forks();
  ASSERT_FALSE(seeds.empty()) << "no random graph covers a continuing fork";
  for (const std::uint64_t seed : seeds)
    expect_matches_referee(random_graph(seed), make_mesh(2, 2), {},
                           "continuing fork seed " + std::to_string(seed));
}

TEST(PortfolioReferee, WithoutRelaxationBase) {
  PortfolioOptions opt;
  opt.base.policy = RemapPolicy::kWithoutRelaxation;
  for (const Csdfg& g : paper_graphs())
    for (const Topology& topo : {make_ring(8), make_hypercube(3)})
      expect_matches_referee(g, topo, opt, g.name() + " strict base");
  opt.attempts = 30;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    opt.seed = seed;
    expect_matches_referee(random_graph(seed), make_mesh(2, 2), opt,
                           "random strict base seed " + std::to_string(seed));
  }
}

TEST(PortfolioReferee, BudgetsFireAfterAFork) {
  class StopAtLength final : public BudgetStopToken {
  public:
    explicit StopAtLength(int length) : length_(length) {}
    [[nodiscard]] bool stop_requested(int current_best) const override {
      return current_best <= length_;
    }

  private:
    int length_;
  };
  const std::vector<std::uint64_t>& seeds = seeds_with_continuing_forks();
  ASSERT_FALSE(seeds.empty());
  const Topology topo = make_mesh(2, 2);
  std::set<std::string> fired;
  for (const std::uint64_t seed : seeds) {
    const Csdfg g = random_graph(seed);
    const Sharing open = sharing_of(g, topo, {});
    const std::string where = "seed " + std::to_string(seed);
    // max_passes equal to a fork's divergence pass: both runs stop at the
    // next boundary.
    for (const auto& [attempt, taken] : open.fork_pass) {
      PortfolioOptions opt;
      opt.base.budget.max_passes = static_cast<int>(taken) + 1;
      if (sharing_of(g, topo, opt).stopped_after_fork("max-passes"))
        fired.insert("max-passes");
      expect_matches_referee(g, topo, opt,
                             where + " max_passes=" +
                                 std::to_string(opt.base.budget.max_passes));
    }
    for (int patience = 1; patience <= 4; ++patience) {
      PortfolioOptions opt;
      opt.base.budget.patience = patience;
      if (!sharing_of(g, topo, opt).stopped_after_fork("patience")) continue;
      fired.insert("patience");
      expect_matches_referee(g, topo, opt,
                             where + " patience=" + std::to_string(patience));
    }
    // The user token is asked before the lower-bound and incumbent rules,
    // so a "preempted" stop at a best within its length is the token's.
    const StoreAndForwardModel comm(topo);
    const int startup = start_up_schedule(g, topo, comm).length();
    const int lower_bound = compute_bounds(g, topo, comm, {}).value;
    for (int length = lower_bound + 1; length < startup; ++length) {
      const StopAtLength stop(length);
      PortfolioOptions opt;
      opt.base.budget.stop = &stop;
      const Sharing s = sharing_of(g, topo, opt);
      if (std::none_of(s.stops_after_fork.begin(), s.stops_after_fork.end(),
                       [&](const auto& st) {
                         return st.first == "preempted" && st.second <= length;
                       }))
        continue;
      fired.insert("user");
      expect_matches_referee(g, topo, opt,
                             where + " user stop at " + std::to_string(length));
    }
  }
  EXPECT_EQ(fired.count("max-passes"), 1u);
  EXPECT_EQ(fired.count("patience"), 1u);
  EXPECT_EQ(fired.count("user"), 1u);
}

TEST(PortfolioWork, Paper19RunsEachDistinctCompactionOnce) {
  const Csdfg g = paper_example19();
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  SpanProfiler profiler;
  MetricsRegistry metrics;
  const ObsContext obs{nullptr, &metrics, &profiler};
  PortfolioOptions opt;
  opt.jobs = 1;
  const PortfolioResult r = portfolio_compact(g, topo, comm, opt, obs);
  ASSERT_EQ(r.attempts.size(), 24u);
  std::size_t startup_spans = 0;
  for (const SpanRecord& span : profiler.records())
    if (span.name == "startup.list") ++startup_spans;
  // One start-up table per priority rule, two of them equal; one run per
  // (selection, distinct table), and each run's without-relaxation
  // attempts fork off once it grows.
  EXPECT_EQ(startup_spans, 3u);
  EXPECT_EQ(metrics.counter("portfolio.startup_tables"), 2);
  EXPECT_EQ(metrics.counter("portfolio.compaction_runs"), 4);
  EXPECT_EQ(metrics.counter("portfolio.forks"), 4);
  EXPECT_EQ(metrics.counter("compaction.passes"), 232);
  EXPECT_EQ(metrics.counter("portfolio.attempts"), 24);
}

}  // namespace
}  // namespace ccs

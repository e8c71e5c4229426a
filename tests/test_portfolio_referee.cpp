// Differential tests: portfolio_compact, which runs each distinct
// compaction once and takes shorter attempts' results from longer runs,
// against the referee below, which runs every roster attempt as an
// independent cyclo_compact under the documented jobs=1 preemption rule.
// At jobs=1 every AttemptOutcome row and the winner's table, retimed graph
// and retiming must match; at jobs 2/4/8 the winner must too.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
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
  // One start-up table per priority rule, one run per (policy, selection,
  // priority) cell.
  EXPECT_EQ(startup_spans, 3u);
  EXPECT_EQ(metrics.counter("portfolio.compaction_runs"), 12);
  EXPECT_EQ(metrics.counter("portfolio.attempts"), 24);
}

}  // namespace
}  // namespace ccs

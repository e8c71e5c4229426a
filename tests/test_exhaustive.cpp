// Unit tests for the exhaustive optimal scheduler — ground truth for the
// heuristic's optimality gap.
#include <gtest/gtest.h>

#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/iteration_bound.hpp"
#include "core/validator.hpp"
#include "referee/exhaustive.hpp"
#include "workloads/generator.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

class ExhaustiveTest : public ::testing::Test {
protected:
  Topology mesh_ = make_mesh(2, 2);
  StoreAndForwardModel comm_{mesh_};
};

TEST_F(ExhaustiveTest, TrivialGraphOptimum) {
  Csdfg g;
  const NodeId a = g.add_node("a", 2);
  const NodeId b = g.add_node("b", 1);
  g.add_edge(a, b, 0, 1);
  g.add_edge(b, a, 1, 1);
  const auto opt = optimal_schedule(g, mesh_, comm_);
  ASSERT_TRUE(opt.has_value());
  // Serial on one PE: a at 1-2, b at 3 -> L = 3; no shorter table exists
  // (the cycle a->b->a has t=3 over d=1).
  EXPECT_EQ(opt->length(), 3);
  EXPECT_TRUE(validate_schedule(g, *opt, comm_).ok());
}

TEST_F(ExhaustiveTest, OptimumOfThePaperExampleGraphAsGiven) {
  // With the ORIGINAL delays (no retiming), the zero-delay critical path
  // A,B,E,F = 6 floors any placement; communication cannot beat it, and a
  // serial 8-step table always exists.  The optimum is the critical path
  // only if communication permits — verify the search result is valid,
  // minimal >= 6, and at most the serial 8.
  const Csdfg g = paper_example6();
  const auto opt = optimal_schedule(g, mesh_, comm_);
  ASSERT_TRUE(opt.has_value());
  EXPECT_TRUE(validate_schedule(g, *opt, comm_).ok());
  EXPECT_GE(opt->length(), 6);
  EXPECT_LE(opt->length(), 8);
}

TEST_F(ExhaustiveTest, MatchesTheIterationBoundAfterCompactionRetiming) {
  // Schedule the RETIMED graph the compactor produced: the optimum at that
  // retiming can be no worse than the heuristic's table.
  const Csdfg g = paper_example6();
  CycloCompactionOptions copt;
  copt.policy = RemapPolicy::kWithRelaxation;
  const auto res = cyclo_compact(g, mesh_, comm_, copt);
  const auto opt = optimal_schedule(res.retimed_graph, mesh_, comm_);
  ASSERT_TRUE(opt.has_value());
  EXPECT_LE(opt->length(), res.best_length());
  // And never below the iteration bound.
  const Rational b = iteration_bound(g);
  EXPECT_GE(static_cast<double>(opt->length()) + 1e-9, b.value());
}

TEST_F(ExhaustiveTest, HeuristicGapOnRandomMicroGraphs) {
  RandomDfgConfig cfg;
  cfg.num_nodes = 6;
  cfg.num_layers = 3;
  cfg.num_back_edges = 2;
  cfg.max_time = 2;
  cfg.max_volume = 2;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    const Csdfg g = random_csdfg(cfg, seed);
    CycloCompactionOptions copt;
    copt.policy = RemapPolicy::kWithRelaxation;
    const auto res = cyclo_compact(g, mesh_, comm_, copt);
    const auto opt = optimal_schedule(res.retimed_graph, mesh_, comm_);
    ASSERT_TRUE(opt.has_value()) << seed;
    EXPECT_TRUE(validate_schedule(res.retimed_graph, *opt, comm_).ok())
        << seed;
    EXPECT_LE(opt->length(), res.best_length()) << seed;
  }
}

TEST_F(ExhaustiveTest, RespectsTheLengthCap) {
  const Csdfg g = paper_example6();
  ExhaustiveOptions opt;
  opt.max_length = 3;  // below the zero-delay critical path: infeasible
  EXPECT_FALSE(optimal_schedule(g, mesh_, comm_, opt).has_value());
}

TEST_F(ExhaustiveTest, BudgetExhaustionReturnsNullopt) {
  const Csdfg g = paper_example19();
  ExhaustiveOptions opt;
  opt.max_search_nodes = 50;  // absurdly small
  EXPECT_FALSE(optimal_schedule(g, mesh_, comm_, opt).has_value());
}

}  // namespace
}  // namespace ccs

// Differential tests: iteration_bound() and critical_cycle() against the
// denominator-sweep referee (cycle_ratio_referee.hpp) on every library
// graph, each one's retimed portfolio winner on the paper machines, delay
// and time scalings, and random graphs; plus exact answers where the
// referee's 64-bit arithmetic cannot go (times and delays near 2^31).
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bounds.hpp"
#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/critical_cycle.hpp"
#include "core/iteration_bound.hpp"
#include "cycle_ratio_referee.hpp"
#include "engine/portfolio.hpp"
#include "io/text_format.hpp"
#include "workloads/generator.hpp"
#include "workloads/library.hpp"
#include "workloads/transforms.hpp"

namespace ccs {
namespace {

/// The library graphs at the sizes the paper-traffic benchmark uses.
std::vector<Csdfg> library_graphs() {
  std::vector<Csdfg> graphs = {
      paper_example6(),  paper_example19(),      elliptic_filter(),
      lattice_filter(),  iir_biquad_cascade(4),  fir_filter(16),
      diffeq_solver(),   correlator(8)};
  std::ifstream in(std::string(CCS_EXAMPLES_DATA_DIR) + "/macroblock.csdfg");
  graphs.push_back(parse_csdfg(in));
  return graphs;
}

/// Same ratio, same critical cycle edge for edge, same rendering.
void expect_agree(const Csdfg& g, const std::string& label) {
  const Rational want = referee_iteration_bound(g);
  const Rational got = iteration_bound(g);
  EXPECT_EQ(got.num, want.num) << label;
  EXPECT_EQ(got.den, want.den) << label;
  const CycleWitness want_cycle = referee_critical_cycle(g);
  const CycleWitness got_cycle = critical_cycle(g);
  EXPECT_EQ(got_cycle.edges, want_cycle.edges) << label;
  EXPECT_EQ(describe_cycle(g, got_cycle), describe_cycle(g, want_cycle))
      << label;
}

TEST(CycleRatioReferee, LibraryGraphsAndScalings) {
  for (const Csdfg& g : library_graphs()) {
    expect_agree(g, g.name());
    for (const int c : {2, 3, 7}) {
      expect_agree(slowdown(g, c),
                   g.name() + " slowdown " + std::to_string(c));
      expect_agree(scale_times(g, c),
                   g.name() + " scale_times " + std::to_string(c));
    }
  }
}

TEST(CycleRatioReferee, RetimedPortfolioWinnersOnThePaperMachines) {
  const std::vector<Topology> machines = {make_complete(8),
                                          make_linear_array(8), make_ring(8),
                                          make_mesh(4, 2), make_hypercube(3)};
  for (const Csdfg& g : library_graphs())
    for (const Topology& topo : machines) {
      const StoreAndForwardModel comm(topo);
      const PortfolioResult r = portfolio_compact(g, topo, comm);
      expect_agree(r.winner.retimed_graph, g.name() + " on " + topo.name());
    }
}

TEST(CycleRatioReferee, RandomGraphs) {
  const std::size_t sizes[] = {8, 16, 24, 32, 48, 64};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    RandomDfgConfig cfg;
    cfg.num_nodes = sizes[seed % std::size(sizes)];
    cfg.num_layers = std::max<std::size_t>(3, cfg.num_nodes / 6);
    cfg.num_back_edges =
        std::max<std::size_t>(2, cfg.num_nodes / (seed % 3 + 2));
    cfg.max_time = 1 + static_cast<int>(seed % 9);
    cfg.max_delay = 1 + static_cast<int>(seed % 5);
    expect_agree(random_csdfg(cfg, seed),
                 "random seed " + std::to_string(seed));
  }
}

/// a --(d = 2^31 - 2)--> b --(d = 1)--> a with t(a) = 2^31 - 1 and
/// t(b) = 2^31 - 19: the cycle ratio is (2^32 - 20)/(2^31 - 1), already
/// reduced (2^31 - 1 is prime), and q*t and p*d are both near 2^63.
Csdfg near_int_max_cycle() {
  Csdfg g("near_int_max");
  g.add_node("a", 2147483647);
  g.add_node("b", 2147483629);
  g.add_edge(0, 1, 2147483646, 1);
  g.add_edge(1, 0, 1, 1);
  return g;
}

TEST(CycleRatioExtremes, NearInt32MaxTimesAndDelaysStayExact) {
  const Csdfg g = near_int_max_cycle();
  const Rational b = iteration_bound(g);
  EXPECT_EQ(b.num, 4294967276);
  EXPECT_EQ(b.den, 2147483647);
  EXPECT_EQ(b.to_string(), "4294967276/2147483647");
  const CycleWitness c = critical_cycle(g);
  EXPECT_EQ(c.edges, (std::vector<EdgeId>{0, 1}));
  EXPECT_EQ(c.ratio(), b);
}

TEST(CycleRatioExtremes, ComputeBoundsOnNearInt32MaxCycle) {
  const Csdfg g = near_int_max_cycle();
  const Topology topo = make_complete(2);
  const StoreAndForwardModel comm(topo);
  const CompositeBound bound = compute_bounds(g, topo, comm, {});
  const BoundResult* b001 = bound.part("CCS-B001");
  ASSERT_NE(b001, nullptr);
  // ceil((2^32 - 20)/(2^31 - 1)) = 2.
  EXPECT_EQ(b001->value, 2);
  EXPECT_EQ(b001->data[0], 4294967276);
  EXPECT_EQ(b001->data[1], 2147483647);
  EXPECT_NE(b001->witness.find("ratio 4294967276/2147483647"),
            std::string::npos)
      << b001->witness;
  ASSERT_NE(bound.part("CCS-B004"), nullptr);
  // The longest task alone needs 2^31 - 1 steps (CCS-B002); the bound caps
  // at 10^9.
  EXPECT_EQ(bound.value, 1'000'000'000);
}

TEST(CycleRatioExtremes, OneHugeDelayIsImmediate) {
  Csdfg g("huge_delay");
  g.add_node("a", 1);
  g.add_node("b", 1);
  g.add_edge(0, 1, 0, 1);
  g.add_edge(1, 0, 2000000000, 1);
  EXPECT_EQ(iteration_bound(g).to_string(), "1/1000000000");
  EXPECT_EQ(critical_cycle(g).edges, (std::vector<EdgeId>{0, 1}));
}

TEST(CycleRatioExtremes, Int32MaxDelayBoundsWithoutOverflow) {
  Csdfg g("int32_max_delay");
  g.add_node("a", 1);
  g.add_node("b", 1);
  g.add_edge(0, 1, 0, 1);
  g.add_edge(1, 0, 2147483647, 1);
  EXPECT_EQ(iteration_bound(g).to_string(), "2/2147483647");
  const Topology topo = make_complete(2);
  const StoreAndForwardModel comm(topo);
  const CompositeBound bound = compute_bounds(g, topo, comm, {});
  ASSERT_NE(bound.part("CCS-B005"), nullptr);  // divides by d(e) + 1
  EXPECT_EQ(bound.value, 1);
}

}  // namespace
}  // namespace ccs

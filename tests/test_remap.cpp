// Unit tests for the remapping phase: the anticipation function AN
// (Lemma 4.2, pinned to the paper's worked numbers), the successor bound,
// try_remap, and the two policies of Definition 4.2 — on the v1 procedures
// kept as the referee (tests/referee/), which RemapEngine is checked against.
#include <gtest/gtest.h>

#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/retiming.hpp"
#include "core/validator.hpp"
#include "referee/remap_referee.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

class RemapTest : public ::testing::Test {
protected:
  Csdfg g_ = paper_example6();
  Topology mesh_ = make_mesh(2, 2);
  StoreAndForwardModel comm_{mesh_};
};

TEST_F(RemapTest, AnticipationMatchesThePaperWorkedExample) {
  // Section 4's example: C rotated with its producer A on "PE2" finishing
  // at control step 6 of a length-6 table, edge A->C now carrying one
  // delay; target length 5.  AN = CE(A) + M + 1 - 1*5 = M + 2.
  Csdfg g = g_;
  Retiming r(g.node_count());
  r.add(g.node_by_name("A"), 1);
  r.apply(g);  // A->C: delay 1
  ScheduleTable t(g, 4);
  const NodeId A = g.node_by_name("A"), C = g.node_by_name("C");
  t.place(A, 1, 6);  // index 1 = the paper's PE2
  // Mesh ids: 0 1 / 2 3.  dist(1,0)=1, dist(1,3)=1, dist(1,2)=2, self 0.
  EXPECT_EQ(anticipation(g, t, comm_, C, 0, 5), 3);  // paper: AN_PE1 = 3
  EXPECT_EQ(anticipation(g, t, comm_, C, 3, 5), 3);  // paper: AN_PE3 = 3
  EXPECT_EQ(anticipation(g, t, comm_, C, 2, 5), 4);  // paper: AN_PE4 = 4
  EXPECT_EQ(anticipation(g, t, comm_, C, 1, 5), 2);  // same PE: CE+1-5
}

TEST_F(RemapTest, AnticipationClampsToStepOne) {
  // Large k*L swamps the producer term: the earliest step is still 1.
  Csdfg g;
  const NodeId u = g.add_node("u", 1);
  const NodeId v = g.add_node("v", 1);
  g.add_edge(u, v, 5, 1);
  ScheduleTable t(g, 2);
  t.place(u, 0, 1);
  EXPECT_EQ(anticipation(g, t, comm_, v, 0, 10), 1);
}

TEST_F(RemapTest, AnticipationIgnoresUnplacedProducersAndSelfLoops) {
  Csdfg g;
  const NodeId u = g.add_node("u", 1);
  const NodeId v = g.add_node("v", 1);
  g.add_edge(u, v, 0, 9);
  g.add_edge(v, v, 1, 9);
  ScheduleTable t(g, 2);  // u unplaced
  EXPECT_EQ(anticipation(g, t, comm_, v, 0, 4), 1);
}

TEST_F(RemapTest, AnticipationIsTheFirstValidStep) {
  // Placing v exactly at AN satisfies the master constraint; one earlier
  // violates it.  This ties Lemma 4.2 to the validator.
  Csdfg g;
  const NodeId u = g.add_node("u", 2);
  const NodeId v = g.add_node("v", 1);
  g.add_edge(u, v, 1, 3);
  g.add_edge(v, u, 1, 1);
  for (PeId pe = 0; pe < 4; ++pe) {
    ScheduleTable t(g, 4);
    t.place(u, 0, 2);
    const int target = 6;
    const int an = anticipation(g, t, comm_, v, pe, target);
    ASSERT_GE(an, 1);
    t.place(v, pe, an);
    t.set_length(std::max(t.occupied_length(), target));
    const auto ok = validate_schedule(g, t, comm_);
    // Only the u->v edge is of interest; v->u may demand more length, so
    // check min_feasible_length instead of full validity at AN-1.
    EXPECT_TRUE(ok.ok() || min_feasible_length(g, t, comm_) > target)
        << "pe=" << pe;
    if (an > 1) {
      ScheduleTable early(g, 4);
      early.place(u, 0, 2);
      early.place(v, pe, an - 1);
      early.set_length(std::max(early.occupied_length(), target));
      bool uv_violated = false;
      for (const auto& viol : validate_schedule(g, early, comm_).violations)
        uv_violated |= viol.message.find("u->v") != std::string::npos;
      EXPECT_TRUE(uv_violated) << "pe=" << pe;
    }
  }
}

TEST_F(RemapTest, LatestStartHonorsPlacedSuccessors) {
  // v -> w zero-delay with w placed at cb 5: on w's PE, v must end by 4.
  Csdfg g;
  const NodeId v = g.add_node("v", 2);
  const NodeId w = g.add_node("w", 1);
  g.add_edge(v, w, 0, 1);
  g.add_edge(w, v, 1, 1);
  ScheduleTable t(g, 4);
  t.place(w, 0, 5);
  // Same PE: CB(v) <= CB(w) - t(v) = 3.
  EXPECT_EQ(latest_start(g, t, comm_, v, 0, 10), 3);
  // One hop away (volume 1): one step earlier.
  EXPECT_EQ(latest_start(g, t, comm_, v, 1, 10), 2);
  // Two hops (mesh diagonal 3 -> 0): earlier still.
  EXPECT_EQ(latest_start(g, t, comm_, v, 3, 10), 1);
}

TEST_F(RemapTest, LatestStartDefaultsToTableEnd) {
  Csdfg g;
  const NodeId v = g.add_node("v", 3);
  g.add_edge(v, v, 1, 1);
  ScheduleTable t(g, 2);
  EXPECT_EQ(latest_start(g, t, comm_, v, 0, 10), 8);  // 10 - 3 + 1
}

TEST_F(RemapTest, TryRemapPlacesIntoFreedSlots) {
  // Rotate A out of the paper's startup schedule by hand and remap it.
  Csdfg g = g_;
  Retiming r(g.node_count());
  const NodeId A = g.node_by_name("A");
  r.add(A, 1);
  r.apply(g);
  ScheduleTable t(g, 4);
  t.place(g.node_by_name("B"), 0, 1);
  t.place(g.node_by_name("C"), 1, 2);
  t.place(g.node_by_name("D"), 0, 3);
  t.place(g.node_by_name("E"), 0, 4);
  t.place(g.node_by_name("F"), 0, 6);
  t.set_length(6);
  const RemapResult res =
      try_remap(g, t, comm_, {A}, 6, RemapSelection::kBidirectional);
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(t.complete());
  EXPECT_LE(res.length, 6);
  EXPECT_TRUE(validate_schedule(g, t, comm_).ok());
}

TEST_F(RemapTest, WithoutRelaxationNeverExceedsPreviousLength) {
  Csdfg g = g_;
  Retiming r(g.node_count());
  const NodeId A = g.node_by_name("A");
  r.add(A, 1);
  r.apply(g);
  ScheduleTable shifted(g, 4);
  shifted.place(g.node_by_name("B"), 0, 1);
  shifted.place(g.node_by_name("C"), 1, 2);
  shifted.place(g.node_by_name("D"), 0, 3);
  shifted.place(g.node_by_name("E"), 0, 4);
  shifted.place(g.node_by_name("F"), 0, 6);
  shifted.set_length(6);
  const auto out = remap_rotated(g, shifted, comm_, {A}, 7,
                                 RemapPolicy::kWithoutRelaxation);
  ASSERT_TRUE(out.has_value());
  EXPECT_LE(out->length(), 7);
  EXPECT_TRUE(validate_schedule(g, *out, comm_).ok());
}

TEST_F(RemapTest, RelaxationSucceedsWhereStrictPolicyCannot) {
  // A bulky producer-consumer pair on a long line: any placement of v needs
  // more steps than the previous length allowed.
  const Topology line = make_linear_array(2);
  const StoreAndForwardModel m(line);
  Csdfg g;
  const NodeId u = g.add_node("u", 1);
  const NodeId v = g.add_node("v", 1);
  g.add_edge(u, v, 0, 8);   // 8 steps of transport if split across PEs
  g.add_edge(v, u, 1, 1);
  ScheduleTable shifted(g, 2);
  shifted.place(u, 0, 1);   // u occupies pe0/cs1; v was rotated out
  shifted.set_length(1);
  const auto strict = remap_rotated(g, shifted, m, {v}, 2,
                                    RemapPolicy::kWithoutRelaxation);
  // v on pe0 needs cs2 (fits in target 2!), so strict succeeds here; check
  // the tighter case: previous length 1.
  const auto strict1 = remap_rotated(g, shifted, m, {v}, 1,
                                     RemapPolicy::kWithoutRelaxation);
  EXPECT_FALSE(strict1.has_value());
  const auto relaxed = remap_rotated(g, shifted, m, {v}, 1,
                                     RemapPolicy::kWithRelaxation);
  ASSERT_TRUE(relaxed.has_value());
  EXPECT_GT(relaxed->length(), 1);
  EXPECT_TRUE(validate_schedule(g, *relaxed, m).ok());
  ASSERT_TRUE(strict.has_value());
  EXPECT_TRUE(validate_schedule(g, *strict, m).ok());
}

TEST_F(RemapTest, AnticipationOnlySelectionStillValidatesViaPsl) {
  // The paper's literal procedure (predecessor side only) must still emit
  // valid tables: rotated nodes have no zero-delay out-edges, so successor
  // slack is always purchasable with PSL padding.
  Csdfg g = g_;
  Retiming r(g.node_count());
  const NodeId A = g.node_by_name("A");
  r.add(A, 1);
  r.apply(g);
  ScheduleTable shifted(g, 4);
  shifted.place(g.node_by_name("B"), 0, 1);
  shifted.place(g.node_by_name("C"), 1, 2);
  shifted.place(g.node_by_name("D"), 0, 3);
  shifted.place(g.node_by_name("E"), 0, 4);
  shifted.place(g.node_by_name("F"), 0, 6);
  shifted.set_length(6);
  const auto out = remap_rotated(g, shifted, comm_, {A}, 7,
                                 RemapPolicy::kWithRelaxation,
                                 RemapSelection::kAnticipationOnly);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(validate_schedule(g, *out, comm_).ok());
}

}  // namespace
}  // namespace ccs

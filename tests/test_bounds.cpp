// Tests of the static bound engine (src/analysis/bounds.hpp): soundness of
// every CCS-B pass against ground truth (exhaustive search) and against
// every schedule the heuristics produce, witness re-derivation, the
// heterogeneous work-conservation fix, and pinned optimality certificates.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/rules.hpp"
#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/critical_cycle.hpp"
#include "core/cyclo_compaction.hpp"
#include "engine/portfolio.hpp"
#include "engine/solver.hpp"
#include "referee/exhaustive.hpp"
#include "workloads/generator.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

/// The machines the sweeps run on: small enough to keep the suite fast,
/// diverse enough to exercise hop distances (linear array), symmetry
/// (complete), and the paper's mesh.
std::vector<Topology> sweep_machines() {
  std::vector<Topology> machines;
  machines.push_back(make_linear_array(2));
  machines.push_back(make_linear_array(4));
  machines.push_back(make_mesh(2, 2));
  machines.push_back(make_ring(4));
  machines.push_back(make_complete(4));
  return machines;
}

/// The library workloads the sweeps cover (name, graph).
std::vector<std::pair<std::string, Csdfg>> sweep_workloads() {
  std::vector<std::pair<std::string, Csdfg>> w;
  w.emplace_back("paper_example6", paper_example6());
  w.emplace_back("paper_example19", paper_example19());
  w.emplace_back("elliptic_filter", elliptic_filter());
  w.emplace_back("lattice_filter", lattice_filter());
  w.emplace_back("iir_biquad_cascade2", iir_biquad_cascade(2));
  w.emplace_back("fir_filter6", fir_filter(6));
  w.emplace_back("diffeq_solver", diffeq_solver());
  w.emplace_back("correlator3", correlator(3));
  return w;
}

/// A staggered heterogeneous speed vector for `n` processors: {1,2,1,2,...}.
std::vector<int> staggered_speeds(std::size_t n) {
  std::vector<int> s(n, 1);
  for (std::size_t i = 1; i < n; i += 2) s[i] = 2;
  return s;
}

/// The pre-bounds-engine portfolio floor: max of the ceil'd iteration
/// bound, homogeneous work conservation, and the longest task.  The
/// composite must never be worse than this.
int naive_lower_bound(const Csdfg& g, std::size_t num_pes) {
  int naive = 1;
  const CycleWitness cycle = critical_cycle(g);
  if (cycle.total_delay > 0)
    naive = std::max(naive, static_cast<int>((cycle.total_time +
                                              cycle.total_delay - 1) /
                                             cycle.total_delay));
  const long long work = g.total_computation();
  const auto pes = static_cast<long long>(num_pes);
  naive = std::max(naive, static_cast<int>((work + pes - 1) / pes));
  for (NodeId v = 0; v < g.node_count(); ++v)
    naive = std::max(naive, g.node(v).time);
  return naive;
}

/// Finds the registered pass that reports under `code`.
const BoundPass* pass_for(std::string_view code) {
  for (const BoundPass* pass : bound_passes())
    if (pass->rule().code == code) return pass;
  return nullptr;
}

/// Checks the composite's internal contract and re-derives every witness.
void check_composite(const CompositeBound& bound, const Csdfg& g,
                     const BoundMachine& machine, const std::string& label) {
  EXPECT_GE(bound.value, 1) << label;
  EXPECT_GE(bound.local_value, bound.value) << label;
  ASSERT_FALSE(bound.parts.empty()) << label;
  const BoundResult* dom = bound.part(bound.dominant);
  ASSERT_NE(dom, nullptr) << label;
  EXPECT_EQ(dom->value, bound.value) << label;
  EXPECT_TRUE(dom->invariant) << label;
  const BoundResult* dom_local = bound.part(bound.dominant_local);
  ASSERT_NE(dom_local, nullptr) << label;
  EXPECT_EQ(dom_local->value, bound.local_value) << label;
  for (const BoundResult& part : bound.parts) {
    const BoundPass* pass = pass_for(part.code);
    ASSERT_NE(pass, nullptr) << label << ": " << part.code;
    EXPECT_TRUE(pass->reverify(g, machine, part))
        << label << ": " << part.code << " witness does not re-derive "
        << part.value << " (" << part.witness << ")";
    EXPECT_FALSE(part.witness.empty()) << label << ": " << part.code;
  }
}

BoundMachine homogeneous_machine(std::size_t num_pes, const CommModel& comm,
                                 bool pipelined = false) {
  BoundMachine m;
  m.num_pes = num_pes;
  m.pipelined = pipelined;
  m.comm = &comm;
  return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// Ground truth: on instances small enough for exhaustive search, even the
// LOCAL composite (which fixes the delay placement, exactly what the
// exhaustive scheduler does) never exceeds the true optimum.

TEST(BoundSoundness, LocalCompositeNeverBeatsExhaustiveOptimum) {
  RandomDfgConfig cfg;
  cfg.num_nodes = 5;
  cfg.num_layers = 2;
  cfg.num_back_edges = 2;
  cfg.max_time = 2;
  cfg.max_volume = 2;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Csdfg g = random_csdfg(cfg, seed);
    for (std::size_t pes : {2u, 3u}) {
      const Topology topo = make_linear_array(pes);
      const StoreAndForwardModel comm(topo);
      const auto opt = optimal_schedule(g, topo, comm);
      ASSERT_TRUE(opt.has_value()) << "seed " << seed << " P=" << pes;
      const BoundMachine machine = homogeneous_machine(pes, comm);
      const CompositeBound bound = compute_bounds(g, machine);
      EXPECT_LE(bound.local_value, opt->length())
          << "seed " << seed << " P=" << pes << " dominant "
          << bound.dominant_local;
      check_composite(bound, g, machine,
                      "seed " + std::to_string(seed));
    }
  }
}

TEST(BoundSoundness, PaperExamplesMatchExhaustiveExactly) {
  // Figure 1(b) on the paper's 2x2 mesh: the composite floor must hold
  // against the true optimum of the as-given graph.
  const Csdfg g = paper_example6();
  const Topology topo = make_mesh(2, 2);
  const StoreAndForwardModel comm(topo);
  const auto opt = optimal_schedule(g, topo, comm);
  ASSERT_TRUE(opt.has_value());
  const CompositeBound bound =
      compute_bounds(g, homogeneous_machine(topo.size(), comm));
  EXPECT_LE(bound.local_value, opt->length());
  EXPECT_GE(bound.value, 3);  // the B-chain cycle forces ceil(6/2) = 3
}

// ---------------------------------------------------------------------------
// Heuristic sweep: the INVARIANT composite holds for every schedule
// cyclo-compaction produces (it retimes first), across the library
// workloads, the machine zoo, pipelined mode, and heterogeneous speeds.

TEST(BoundSoundness, InvariantCompositeHoldsForCycloCompaction) {
  for (const auto& [name, g] : sweep_workloads()) {
    for (const Topology& topo : sweep_machines()) {
      const StoreAndForwardModel comm(topo);
      for (int config = 0; config < 3; ++config) {
        CycloCompactionOptions opt;
        opt.passes = 8;  // soundness holds for any pass budget
        if (config == 1) opt.startup.pipelined_pes = true;
        if (config == 2) opt.startup.pe_speeds = staggered_speeds(topo.size());
        const std::string label = name + " on " + topo.name() + " config " +
                                  std::to_string(config);
        const CompositeBound bound = compute_bounds(g, topo, comm, opt);
        const CycloCompactionResult run = cyclo_compact(g, topo, comm, opt);
        EXPECT_LE(bound.value, run.best_length())
            << label << " dominant " << bound.dominant;
        EXPECT_LE(bound.value, run.startup_length()) << label;
        check_composite(bound, g, machine_view(topo, comm, opt), label);
      }
    }
  }
}

TEST(BoundSoundness, InvariantCompositeHoldsForThePortfolio) {
  const Csdfg g = paper_example19();
  const Topology topo = make_mesh(2, 2);
  const StoreAndForwardModel comm(topo);
  PortfolioOptions popt;
  popt.jobs = 1;
  const PortfolioResult r = portfolio_compact(g, topo, comm, popt);
  EXPECT_GE(r.winner.best_length(), r.lower_bound);
  EXPECT_EQ(r.lower_bound, std::max(1, r.bound.value));
  for (const AttemptOutcome& a : r.attempts) {
    if (a.length > 0) {
      EXPECT_GE(a.length, r.lower_bound) << a.label;
    }
  }
}

// ---------------------------------------------------------------------------
// The composite dominates the old floor, and communication awareness makes
// it strictly better on the paper's 19-task workload.

TEST(BoundComposite, NeverWorseThanTheNaiveFloor) {
  for (const auto& [name, g] : sweep_workloads()) {
    for (const Topology& topo : sweep_machines()) {
      const StoreAndForwardModel comm(topo);
      const CompositeBound bound =
          compute_bounds(g, homogeneous_machine(topo.size(), comm));
      EXPECT_GE(bound.value, naive_lower_bound(g, topo.size()))
          << name << " on " << topo.name();
    }
  }
}

TEST(BoundComposite, CommunicationRaisesThePaperWorkloadFloor) {
  // On every one of the paper's machines the 19-task graph's naive floor
  // is 3 (iteration bound and ceil(24/8)); CCS-B004 proves 4 by pricing
  // the critical cycle's cheapest two transfers into its delay windows.
  const Csdfg g = paper_example19();
  std::vector<Topology> paper_machines;
  paper_machines.push_back(make_mesh(4, 2));
  paper_machines.push_back(make_linear_array(8));
  paper_machines.push_back(make_ring(8));
  paper_machines.push_back(make_complete(8));
  paper_machines.push_back(make_hypercube(3));
  for (const Topology& topo : paper_machines) {
    const StoreAndForwardModel comm(topo);
    const CompositeBound bound =
        compute_bounds(g, homogeneous_machine(topo.size(), comm));
    const int naive = naive_lower_bound(g, topo.size());
    EXPECT_GT(bound.value, naive) << topo.name();
    EXPECT_EQ(bound.value, 4) << topo.name();
    EXPECT_EQ(bound.dominant, "CCS-B004") << topo.name();
  }
}

// ---------------------------------------------------------------------------
// CCS-B002: the heterogeneous work-conservation fix.  The old homogeneous
// ceil(T/P) is unsound-in-spirit on slow machines (it understates) — the
// speed-aware form charges each processor its own throughput.

TEST(BoundWorkConservation, HeterogeneousBeatsNaiveCeil) {
  // paper_example6 has total work 8.  On {1, 4} the naive ceil(8/2) = 4,
  // but floor(L/1) + floor(L/4) >= 8 first holds at L = 7.
  const Csdfg g = paper_example6();
  const Topology topo = make_linear_array(2);
  const StoreAndForwardModel comm(topo);
  BoundMachine machine = homogeneous_machine(2, comm);
  machine.speeds = {1, 4};
  const CompositeBound bound = compute_bounds(g, machine);
  const BoundResult* work = bound.part("CCS-B002");
  ASSERT_NE(work, nullptr);
  EXPECT_GE(work->value, 7);
  EXPECT_GT(work->value, 4);  // strictly better than ceil(T/P)
}

TEST(BoundWorkConservation, HomogeneousReducesToCeil) {
  const Csdfg g = paper_example19();  // T = 24
  const Topology topo = make_complete(8);
  const StoreAndForwardModel comm(topo);
  const CompositeBound bound =
      compute_bounds(g, homogeneous_machine(8, comm));
  const BoundResult* work = bound.part("CCS-B002");
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->value, 3);  // ceil(24/8), longest task 2
}

// ---------------------------------------------------------------------------
// Pass applicability: pipelined-only and communication-only passes appear
// exactly when their machine features do.

TEST(BoundPasses, ApplicabilityTracksTheMachine) {
  const Csdfg g = paper_example6();
  const Topology topo = make_mesh(2, 2);
  const StoreAndForwardModel comm(topo);

  const CompositeBound plain =
      compute_bounds(g, homogeneous_machine(4, comm));
  EXPECT_EQ(plain.part("CCS-B003"), nullptr);  // not pipelined
  EXPECT_NE(plain.part("CCS-B001"), nullptr);
  EXPECT_NE(plain.part("CCS-B002"), nullptr);
  EXPECT_NE(plain.part("CCS-B004"), nullptr);
  EXPECT_NE(plain.part("CCS-B006"), nullptr);

  const CompositeBound piped =
      compute_bounds(g, homogeneous_machine(4, comm, /*pipelined=*/true));
  const BoundResult* issue = piped.part("CCS-B003");
  ASSERT_NE(issue, nullptr);
  EXPECT_EQ(issue->value, 2);  // ceil(6 tasks / 4 PEs)

  BoundMachine no_comm;
  no_comm.num_pes = 4;
  const CompositeBound silent = compute_bounds(g, no_comm);
  // Without a comm model B005's delay windows are unknowable; B004 still
  // applies but prices transfers at zero (conservative, still sound).
  EXPECT_EQ(silent.part("CCS-B005"), nullptr);
  EXPECT_NE(silent.part("CCS-B004"), nullptr);
  EXPECT_NE(silent.part("CCS-B001"), nullptr);
}

TEST(BoundPasses, TamperedWitnessFailsReverify) {
  const Csdfg g = paper_example6();
  const Topology topo = make_mesh(2, 2);
  const StoreAndForwardModel comm(topo);
  const BoundMachine machine = homogeneous_machine(4, comm);
  const CompositeBound bound = compute_bounds(g, machine);
  for (const BoundResult& part : bound.parts) {
    BoundResult forged = part;
    forged.value += 1;  // claim one more step than the witness proves
    EXPECT_FALSE(pass_for(part.code)->reverify(g, machine, forged))
        << part.code;
  }
}

// ---------------------------------------------------------------------------
// Diagnostics plumbing: report_bounds speaks catalogue CCS-B codes and
// never fails a bag (notes only).

TEST(BoundReport, EmitsOneNotePerPartAndNeverFails) {
  const Csdfg g = paper_example6();
  const Topology topo = make_mesh(2, 2);
  const StoreAndForwardModel comm(topo);
  const CompositeBound bound =
      compute_bounds(g, homogeneous_machine(4, comm));
  DiagnosticBag bag;
  report_bounds(bound, SourceSpan{"<graph>", 0}, bag);
  bag.finalize();
  EXPECT_EQ(bag.size(), bound.parts.size());
  EXPECT_FALSE(bag.fails(/*werror=*/true));
  for (const Diagnostic& d : bag.diagnostics())
    EXPECT_EQ(d.code.rfind("CCS-B", 0), 0u) << d.code;
}

// ---------------------------------------------------------------------------
// Optimality certificates: pinned (workload, machine) pairs where the
// solver proves its answer optimal — gap 0 on a certified schedule.

TEST(BoundOptimality, SolverCertifiesPaperFig1bOptimal) {
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  req.mode = SolveMode::kPortfolio;
  req.portfolio.jobs = 1;
  const SolveResponse res = Solver{}.solve(req);
  ASSERT_TRUE(res.ok()) << render_text(res.diagnostics);
  EXPECT_EQ(res.lower_bound, 3);
  EXPECT_EQ(res.best_length, 3);
  EXPECT_EQ(res.gap, 0);
  EXPECT_TRUE(res.optimal);
}

TEST(BoundOptimality, SolverCertifiesPaperFig7OnLinearArray4Optimal) {
  // 24 units of work over 4 PEs: CCS-B002 proves 6, and the portfolio
  // finds a certified 6-step schedule — provably optimal.
  SolveRequest req;
  req.graph = paper_example19();
  req.arch = "linear_array 4";
  req.mode = SolveMode::kPortfolio;
  req.portfolio.jobs = 1;
  const SolveResponse res = Solver{}.solve(req);
  ASSERT_TRUE(res.ok()) << render_text(res.diagnostics);
  EXPECT_EQ(res.lower_bound, 6);
  EXPECT_EQ(res.best_length, 6);
  EXPECT_EQ(res.gap, 0);
  EXPECT_TRUE(res.optimal);
}

TEST(BoundOptimality, GapIsReportedWhenNotClosed) {
  // The paper's flagship pair: 19 tasks on the 4x2 mesh.  The portfolio's
  // best is 6 against a proven floor of 4 — a reported, honest gap.
  SolveRequest req;
  req.graph = paper_example19();
  req.arch = "mesh 4 2";
  req.mode = SolveMode::kPortfolio;
  req.portfolio.jobs = 1;
  const SolveResponse res = Solver{}.solve(req);
  ASSERT_TRUE(res.ok()) << render_text(res.diagnostics);
  EXPECT_EQ(res.lower_bound, 4);
  EXPECT_EQ(res.gap, res.best_length - 4);
  EXPECT_GT(res.gap, 0);
  EXPECT_FALSE(res.optimal);
}

}  // namespace ccs

// ccsched — differential tests for RemapEngine.
//
// The contract under test: the engine (bitset slot tests, delta-maintained
// AN caches) is placement-for-placement identical to the naive v1 referee
// (tests/referee/) on every library workload, every paper machine, and
// every driver configuration.  The suite drives both through whole
// cyclo-compaction runs (certifying the result from first principles) and
// through randomized lockstep rotate/remap/commit/rollback sequences that
// stress the delta updates.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/certify.hpp"
#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/list_scheduler.hpp"
#include "core/remap_engine.hpp"
#include "core/validator.hpp"
#include "io/text_format.hpp"
#include "referee/remap_referee.hpp"
#include "util/contracts.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

struct Machine {
  const char* name;
  Topology topo;
};

std::vector<Machine> paper_machines() {
  std::vector<Machine> machines;
  machines.push_back({"complete8", make_complete(8)});
  machines.push_back({"linear8", make_linear_array(8)});
  machines.push_back({"ring8", make_ring(8)});
  machines.push_back({"mesh4x2", make_mesh(4, 2)});
  machines.push_back({"hypercube3", make_hypercube(3)});
  return machines;
}

std::vector<std::pair<std::string, Csdfg>> library_workloads() {
  std::vector<std::pair<std::string, Csdfg>> w;
  w.emplace_back("paper6", paper_example6());
  w.emplace_back("paper19", paper_example19());
  w.emplace_back("elliptic", elliptic_filter());
  w.emplace_back("lattice", lattice_filter());
  w.emplace_back("biquad3", iir_biquad_cascade(3));
  w.emplace_back("fir8", fir_filter(8));
  w.emplace_back("diffeq", diffeq_solver());
  w.emplace_back("correlator5", correlator(5));
  return w;
}

/// The machines BackendParity runs on: the paper's five, plus the 2x2 mesh
/// of the Figure 1 walkthrough.
std::vector<Machine> parity_machines() {
  std::vector<Machine> machines = paper_machines();
  machines.push_back({"mesh2x2", make_mesh(2, 2)});
  return machines;
}

Csdfg load_example(const std::string& file) {
  std::ifstream f(std::string(CCS_EXAMPLES_DATA_DIR) + "/" + file);
  std::stringstream text;
  text << f.rdbuf();
  return parse_csdfg(text.str());
}

/// Driver configuration for differential seed s: distinct (policy,
/// selection, startup priority) corners so the parity claim is exercised
/// beyond the default path.
CycloCompactionOptions seed_options(int seed) {
  CycloCompactionOptions opt;
  switch (seed % 3) {
    case 0:
      opt.policy = RemapPolicy::kWithRelaxation;
      opt.selection = RemapSelection::kBidirectional;
      opt.startup.priority = PriorityRule::kCommunicationSensitive;
      break;
    case 1:
      opt.policy = RemapPolicy::kWithoutRelaxation;
      opt.selection = RemapSelection::kBidirectional;
      opt.startup.priority = PriorityRule::kMobilityOnly;
      break;
    default:
      opt.policy = RemapPolicy::kWithRelaxation;
      opt.selection = RemapSelection::kAnticipationOnly;
      opt.startup.priority = PriorityRule::kFifo;
      break;
  }
  return opt;
}

/// Placement-for-placement equality: same grid coordinates for every task
/// and the same advertised length.  Deliberately not ScheduleTable::
/// operator== — the engine materializes tables with normalized column
/// capacity, which is representation, not meaning.
void expect_same_schedule(const ScheduleTable& a, const ScheduleTable& b,
                          const std::string& what) {
  ASSERT_EQ(a.node_count(), b.node_count()) << what;
  EXPECT_EQ(a.length(), b.length()) << what;
  for (NodeId v = 0; v < a.node_count(); ++v) {
    ASSERT_EQ(a.is_placed(v), b.is_placed(v)) << what << " node " << v;
    if (!a.is_placed(v)) continue;
    EXPECT_EQ(a.cb(v), b.cb(v)) << what << " node " << v;
    EXPECT_EQ(a.ce(v), b.ce(v)) << what << " node " << v;
    EXPECT_EQ(a.pe(v), b.pe(v)) << what << " node " << v;
  }
}

void expect_same_graph_delays(const Csdfg& a, const Csdfg& b,
                              const std::string& what) {
  ASSERT_EQ(a.edge_count(), b.edge_count()) << what;
  for (EdgeId e = 0; e < a.edge_count(); ++e)
    EXPECT_EQ(a.edge(e).delay, b.edge(e).delay) << what << " edge " << e;
}

/// One BackendParity input: a graph and the driver configurations to run
/// it under.
struct ParityInput {
  std::string name;
  Csdfg graph;
  std::vector<CycloCompactionOptions> configs;
};

/// Every library workload under the three seed configurations on every
/// machine, and the shipped example graphs on the machine each targets
/// (paper_fig1b on the 2x2 mesh, paper_fig7 on the 4x2 mesh) under the
/// default configuration with and without relaxation — what
/// `ccsched schedule --policy relax|strict` runs.
std::vector<ParityInput> parity_inputs(const std::string& machine) {
  std::vector<ParityInput> inputs;
  const std::vector<CycloCompactionOptions> seeds = {
      seed_options(0), seed_options(1), seed_options(2)};
  if (machine != "mesh2x2")
    for (auto& [name, g] : library_workloads())
      inputs.push_back({name, std::move(g), seeds});
  CycloCompactionOptions relax;
  CycloCompactionOptions strict;
  strict.policy = RemapPolicy::kWithoutRelaxation;
  if (machine == "mesh2x2")
    inputs.push_back({"paper_fig1b", load_example("paper_fig1b.csdfg"),
                      {relax, strict}});
  if (machine == "mesh4x2")
    inputs.push_back({"paper_fig7", load_example("paper_fig7.csdfg"),
                      {relax, strict}});
  return inputs;
}

class BackendParity : public ::testing::TestWithParam<std::size_t> {};

// The acceptance check: the engine and the referee, run through whole
// cyclo-compaction drivers across every input of parity_inputs(), produce
// bit-identical schedules, traces, and retimings, and the engine's winner
// certifies clean from first principles (CCS-S).
TEST_P(BackendParity, CycloCompactionIsPlacementIdentical) {
  const Machine machine = parity_machines()[GetParam()];
  const StoreAndForwardModel comm(machine.topo);
  for (const ParityInput& input : parity_inputs(machine.name)) {
    const Csdfg& g = input.graph;
    for (std::size_t c = 0; c < input.configs.size(); ++c) {
      const CycloCompactionOptions& options = input.configs[c];
      const std::string what = input.name + "/" + machine.name + "/config" +
                               std::to_string(c);
      const CycloCompactionResult a =
          cyclo_compact(g, machine.topo, comm, options);
      const CycloCompactionResult b =
          referee_cyclo_compact(g, machine.topo, comm, options);

      EXPECT_EQ(a.backend, "incremental") << what;
      expect_same_schedule(a.best, b.best, what + " best");
      expect_same_schedule(a.startup, b.startup, what + " startup");
      expect_same_graph_delays(a.retimed_graph, b.retimed_graph, what);
      EXPECT_TRUE(a.retiming == b.retiming) << what;
      EXPECT_EQ(a.length_trace, b.length_trace) << what;
      EXPECT_EQ(a.best_pass, b.best_pass) << what;
      EXPECT_EQ(a.stop_reason, b.stop_reason) << what;

      // The Lemma 4.2 evaluation count is the same on both by design (the
      // cache changes the cost of an evaluation, not the number).
      EXPECT_EQ(a.remap_stats.an_evaluations, b.remap_stats.an_evaluations)
          << what;
      EXPECT_EQ(a.remap_stats.an_cache_hits, a.remap_stats.an_evaluations)
          << what;
      EXPECT_EQ(a.remap_stats.bitset_probes, a.remap_stats.slots_scanned)
          << what;

      DiagnosticBag bag;
      EXPECT_TRUE(certify_compaction_run(g, a, comm, options.policy, what,
                                         {}, bag))
          << what << "\n";
      bag.finalize();
      EXPECT_TRUE(bag.empty()) << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, BackendParity,
                         ::testing::Range<std::size_t>(0, 6),
                         [](const auto& param_info) {
                           return std::string(
                               parity_machines()[param_info.param].name);
                         });

/// Tiny deterministic xorshift so the lockstep sequences are reproducible
/// (the suite must not depend on libc rand).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

// The delta-update property test: the engine and the referee driven in
// lockstep through randomized rotate / remap / commit-or-rollback
// sequences agree on every observable after every operation.  Rollbacks are
// taken on purpose mid-run so the snapshot restore path (placements,
// bitsets, delays, retiming, origin) is exercised, not just the happy path.
TEST(RemapEngineDelta, LockstepRandomizedSequencesMatchNaive) {
  const auto machines = paper_machines();
  for (const auto& [wname, g] : library_workloads()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Machine& machine = machines[(seed + wname.size()) %
                                        machines.size()];
      const StoreAndForwardModel comm(machine.topo);
      const std::string what =
          wname + "/" + machine.name + "/seed" + std::to_string(seed);
      Rng rng{seed * 0x9e3779b97f4a7c15ull + wname.size()};

      const ScheduleTable startup = start_up_schedule(g, machine.topo, comm);
      RemapEngine fast(g, comm);
      RefereeRemapEngine referee(g, comm);
      fast.bind(startup);
      referee.bind(startup);

      const RemapPolicy policy = (seed % 2) != 0
                                     ? RemapPolicy::kWithRelaxation
                                     : RemapPolicy::kWithoutRelaxation;
      for (int pass = 0; pass < 24; ++pass) {
        const int previous = fast.length();
        ASSERT_EQ(previous, referee.length()) << what << " pass " << pass;

        const std::vector<NodeId> ra = fast.rotate();
        const std::vector<NodeId> rb = referee.rotate();
        ASSERT_EQ(ra, rb) << what << " pass " << pass;

        const std::optional<int> la =
            fast.remap(ra, previous, policy, RemapSelection::kBidirectional);
        const std::optional<int> lb = referee.remap(
            rb, previous, policy, RemapSelection::kBidirectional);
        ASSERT_EQ(la.has_value(), lb.has_value()) << what << " pass " << pass;

        if (!la) {
          fast.rollback();
          referee.rollback();
          expect_same_schedule(fast.table(), referee.table(),
                               what + " rolled-back failure");
          break;
        }
        EXPECT_EQ(*la, *lb) << what << " pass " << pass;

        // ~1 in 4 successful passes is discarded to stress the snapshot
        // restore; both engines must take the same branch.
        if (rng.next() % 4 == 0) {
          fast.rollback();
          referee.rollback();
        } else {
          fast.commit();
          referee.commit();
        }
        const std::string step = what + " pass " + std::to_string(pass);
        expect_same_schedule(fast.table(), referee.table(), step);
        expect_same_graph_delays(fast.graph(), referee.graph(), step);
        EXPECT_TRUE(fast.retiming() == referee.retiming()) << step;
        EXPECT_EQ(fast.stats().an_evaluations,
                  referee.stats().an_evaluations)
            << step;

        // The working schedule is always valid for the working graph —
        // the engine never commits (or restores) an inconsistent state.
        const ValidationReport report =
            validate_schedule(fast.graph(), fast.table(), comm);
        EXPECT_TRUE(report.ok()) << step;
      }
    }
  }
}

TEST(RemapEngineApi, LifecycleContractsAreEnforced) {
  const Csdfg g = paper_example6();
  const Topology mesh = make_mesh(2, 2);
  const StoreAndForwardModel comm(mesh);
  RemapEngine engine(g, comm);
  EXPECT_FALSE(engine.bound());
  EXPECT_THROW((void)engine.rotate(), ContractViolation);
  EXPECT_THROW((void)engine.remap({}, 1, RemapPolicy::kWithRelaxation,
                                  RemapSelection::kBidirectional),
               ContractViolation);
  EXPECT_THROW((void)engine.table(), ContractViolation);

  engine.bind(start_up_schedule(g, mesh, comm));
  EXPECT_TRUE(engine.bound());
  expect_same_schedule(engine.table(), start_up_schedule(g, mesh, comm),
                       "bind round-trip");
}

// place() on a partial table, the way schedule repair uses it: at each
// target it agrees with the referee's try_remap, every failed attempt
// leaves the working state exactly as bound, and the first target that
// succeeds places every missing task where the referee does.
TEST(RemapEngineApi, PlaceUndoesAFailedAttemptWhole) {
  const Csdfg g = paper_example6();
  const Topology mesh = make_mesh(2, 2);
  const StoreAndForwardModel comm(mesh);
  const ScheduleTable full = start_up_schedule(g, mesh, comm);
  ScheduleTable partial(g, mesh.size());
  std::vector<NodeId> missing;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (full.cb(v) == 1) {
      missing.push_back(v);
      continue;
    }
    partial.place(v, full.pe(v), full.cb(v));
  }
  partial.set_length(full.length());
  ASSERT_FALSE(missing.empty());

  RemapEngine engine(g, comm);
  engine.bind(partial);
  int failures = 0;
  std::optional<int> length;
  for (int target = 1; target <= 2 * full.length(); ++target) {
    const std::string what = "place() at " + std::to_string(target);
    ScheduleTable expected = partial;
    const RemapResult ref = try_remap(g, expected, comm, missing, target,
                                      RemapSelection::kBidirectional);
    length = engine.place(missing, target, RemapSelection::kBidirectional);
    ASSERT_EQ(length.has_value(), ref.success) << what;
    if (length) {
      EXPECT_EQ(*length, ref.length) << what;
      expect_same_schedule(engine.table(), expected, what);
      break;
    }
    ++failures;
    expect_same_schedule(engine.table(), partial, what);
    EXPECT_EQ(engine.length(), partial.length()) << what;
  }
  EXPECT_GT(failures, 0);
  ASSERT_TRUE(length.has_value());
  EXPECT_TRUE(validate_schedule(g, engine.table(), comm).ok());
}

// The engine's reason to exist: on the paper's 19-node workload the bitset
// word probes undercut the referee's cell walk by a wide margin while
// producing the same schedule.  The hard >= 5x gate lives in
// bench_portfolio's quality gate; here the test pins the direction so a
// regression cannot hide between bench runs.
TEST(RemapEngineStats, IncrementalScansFewerSlotsOnPaper19) {
  const Csdfg g = paper_example19();
  const Topology mesh = make_mesh(4, 2);
  const StoreAndForwardModel comm(mesh);

  const CycloCompactionResult a = cyclo_compact(g, mesh, comm);
  const CycloCompactionResult b = referee_cyclo_compact(g, mesh, comm);
  expect_same_schedule(a.best, b.best, "paper19/mesh4x2");
  EXPECT_GT(a.remap_stats.slots_scanned, 0);
  EXPECT_GT(b.remap_stats.slots_scanned,
            4 * a.remap_stats.slots_scanned)
      << "incremental " << a.remap_stats.slots_scanned << " vs naive "
      << b.remap_stats.slots_scanned;
  EXPECT_GT(a.remap_stats.an_cache_hits, 0);
}

}  // namespace
}  // namespace ccs

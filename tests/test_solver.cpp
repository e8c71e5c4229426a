// Tests of the ccs::Solver facade (src/engine/solver.hpp) — the stable API
// contract documented in docs/API.md, reached through the umbrella header.
//
// The load-bearing properties:
//  * solve() never throws: every failure mode lands in the diagnostics bag
//    as a CCS-E001 (unusable request) or CCS-E002 (provably no answer)
//    finding with a matching SolveStatus — these tests are what "pins the
//    solver request rules" promised by tests/test_lint.cpp;
//  * the happy path of every mode fills the response fields it advertises;
//  * the bag is always finalized and renderable.

#include "ccsched.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "workloads/library.hpp"

namespace ccs {
namespace {

bool has_code(const DiagnosticBag& bag, const std::string& code) {
  const auto& diags = bag.diagnostics();
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

TEST(SolverApi, VersionMacroIsCurrent) {
  EXPECT_EQ(CCSCHED_API_VERSION, 3);
}

TEST(SolverApi, HelloWorldScheduleIsCertified) {
  // The README / docs/API.md hello-world, verbatim in spirit.
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  const SolveResponse res = solver.solve(req);
  ASSERT_TRUE(res.ok()) << render_text(res.diagnostics);
  ASSERT_TRUE(res.schedule.has_value());
  EXPECT_TRUE(res.certified);
  EXPECT_GT(res.best_length, 0);
  EXPECT_LE(res.best_length, res.startup_length);
  ASSERT_TRUE(res.machine.has_value());
  EXPECT_EQ(res.machine->size(), 4u);
  EXPECT_EQ(solve_status_name(res.status), "ok");
  // The response graph is the retimed one the schedule satisfies.
  const StoreAndForwardModel comm(*res.machine);
  EXPECT_TRUE(validate_schedule(res.graph, *res.schedule, comm).ok());
}

TEST(SolverApi, MalformedArchitectureIsInvalidNotThrown) {
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "klein-bottle 7";
  const SolveResponse res = solver.solve(req);
  EXPECT_EQ(res.status, SolveStatus::kInvalidRequest);
  EXPECT_TRUE(has_code(res.diagnostics, "CCS-E001"))
      << render_text(res.diagnostics);
  EXPECT_EQ(solve_status_name(res.status), "invalid-request");
}

TEST(SolverApi, MissingMachineIsInvalid) {
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  const SolveResponse res = solver.solve(req);
  EXPECT_EQ(res.status, SolveStatus::kInvalidRequest);
  EXPECT_TRUE(has_code(res.diagnostics, "CCS-E001"));
}

TEST(SolverApi, IllegalGraphIsInvalidNotThrown) {
  Csdfg g("zero-delay-cycle");
  const NodeId a = g.add_node("a", 1);
  const NodeId b = g.add_node("b", 1);
  g.add_edge(a, b, 0);
  g.add_edge(b, a, 0);
  Solver solver;
  SolveRequest req;
  req.graph = g;
  req.arch = "mesh 2 2";
  const SolveResponse res = solver.solve(req);
  EXPECT_EQ(res.status, SolveStatus::kInvalidRequest);
  EXPECT_TRUE(has_code(res.diagnostics, "CCS-E001"));
  EXPECT_FALSE(res.schedule.has_value());
}

TEST(SolverApi, HorizonBeyondIntIsRefusedWithItsCode) {
  Csdfg g("horizon");
  const NodeId a = g.add_node("a", 2000000000);
  const NodeId b = g.add_node("b", 2000000000);
  g.add_edge(a, b, 0);
  g.add_edge(b, a, 1);
  Solver solver;
  SolveRequest req;
  req.graph = g;
  req.arch = "mesh 2 2";
  const SolveResponse res = solver.solve(req);
  EXPECT_EQ(res.status, SolveStatus::kInvalidRequest);
  ASSERT_FALSE(res.diagnostics.diagnostics().empty());
  // The specific code leads; the CCS-E001 summary follows it.
  EXPECT_EQ(res.diagnostics.diagnostics()[0].code, "CCS-G009");
  EXPECT_TRUE(has_code(res.diagnostics, "CCS-E001"));
  EXPECT_FALSE(res.schedule.has_value());
}

TEST(SolverApi, WrongSpeedsVectorIsInvalid) {
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  req.options.startup.pe_speeds = {1, 2};  // 4-PE machine
  const SolveResponse res = solver.solve(req);
  EXPECT_EQ(res.status, SolveStatus::kInvalidRequest);
  EXPECT_TRUE(has_code(res.diagnostics, "CCS-E001"));
}

TEST(SolverApi, ExplicitTopologyWinsOverArchString) {
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "this is not a machine";
  req.topology.emplace(make_linear_array(3));
  const SolveResponse res = solver.solve(req);
  ASSERT_TRUE(res.ok()) << render_text(res.diagnostics);
  EXPECT_EQ(res.machine->size(), 3u);
}

TEST(SolverApi, StartupModeSkipsCompaction) {
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  req.mode = SolveMode::kStartup;
  const SolveResponse res = solver.solve(req);
  ASSERT_TRUE(res.ok()) << render_text(res.diagnostics);
  EXPECT_EQ(res.best_length, res.startup_length);
  EXPECT_TRUE(res.certified);
}

TEST(SolverApi, ModuloModeRejectsSpeeds) {
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  req.mode = SolveMode::kModulo;
  req.options.startup.pe_speeds = {1, 1, 1, 2};
  const SolveResponse res = solver.solve(req);
  EXPECT_EQ(res.status, SolveStatus::kInvalidRequest);
  EXPECT_TRUE(has_code(res.diagnostics, "CCS-E001"));

  req.options.startup.pe_speeds.clear();
  const SolveResponse ok = solver.solve(req);
  ASSERT_TRUE(ok.ok()) << render_text(ok.diagnostics);
  EXPECT_TRUE(ok.schedule.has_value());
}

TEST(SolverApi, PortfolioModeReportsProvenance) {
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  req.mode = SolveMode::kPortfolio;
  req.portfolio.jobs = 2;
  const SolveResponse res = solver.solve(req);
  ASSERT_TRUE(res.ok()) << render_text(res.diagnostics);
  EXPECT_TRUE(res.certified);
  ASSERT_FALSE(res.attempts.empty());
  ASSERT_GE(res.winner_attempt, 0);
  ASSERT_LT(static_cast<std::size_t>(res.winner_attempt),
            res.attempts.size());
  EXPECT_EQ(res.attempts[static_cast<std::size_t>(res.winner_attempt)].label,
            res.winner_label);
  EXPECT_EQ(
      res.attempts[static_cast<std::size_t>(res.winner_attempt)].length,
      res.best_length);
  // The request's options field is the portfolio's base configuration, so
  // the facade can never do worse than the serial solve of that config.
  SolveRequest serial = req;
  serial.mode = SolveMode::kSchedule;
  const SolveResponse base = solver.solve(serial);
  ASSERT_TRUE(base.ok());
  EXPECT_LE(res.best_length, base.best_length);
}

TEST(SolverApi, CertifyModeNeedsASchedule) {
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  req.mode = SolveMode::kCertify;
  const SolveResponse res = solver.solve(req);
  EXPECT_EQ(res.status, SolveStatus::kInvalidRequest);
  EXPECT_TRUE(has_code(res.diagnostics, "CCS-E001"));
}

TEST(SolverApi, CertifyModeAcceptsAGoodScheduleAndRejectsABrokenOne) {
  Solver solver;
  SolveRequest produce;
  produce.graph = paper_example6();
  produce.arch = "mesh 2 2";
  const SolveResponse made = solver.solve(produce);
  ASSERT_TRUE(made.ok());

  SolveRequest check;
  check.graph = made.graph;  // the retimed graph the schedule satisfies
  check.arch = "mesh 2 2";
  check.mode = SolveMode::kCertify;
  check.schedule = made.schedule;
  const SolveResponse good = solver.solve(check);
  EXPECT_TRUE(good.ok()) << render_text(good.diagnostics);
  EXPECT_TRUE(good.certified);

  // Certifying against the *unretimed* graph (or any wrong graph) must
  // surface CCS-S findings, not throw.
  check.graph = produce.graph;
  const SolveResponse bad = solver.solve(check);
  if (!bad.ok()) {
    EXPECT_EQ(bad.status, SolveStatus::kUncertified);
    EXPECT_FALSE(bad.certified);
    EXPECT_FALSE(bad.diagnostics.empty());
  }
}

TEST(SolverApi, RepairModeWalksTheLadder) {
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  req.mode = SolveMode::kRepair;
  req.faults = "fail p0\n";
  const SolveResponse res = solver.solve(req);
  ASSERT_TRUE(res.ok()) << render_text(res.diagnostics);
  EXPECT_FALSE(res.repair_rung.empty());
  ASSERT_TRUE(res.machine.has_value());
  EXPECT_LT(res.machine->size(), 4u);  // the dead PE is gone
  EXPECT_EQ(res.pe_map.size(), res.machine->size());
  // The surviving machine never contains the failed PE 0.
  for (const PeId original : res.pe_map) EXPECT_NE(original, 0u);
}

TEST(SolverApi, RepairModeReportsInfeasibilityAsE002) {
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  req.mode = SolveMode::kRepair;
  req.faults = "fail p0\nfail p1\nfail p2\nfail p3\n";
  const SolveResponse res = solver.solve(req);
  EXPECT_EQ(res.status, SolveStatus::kInfeasible);
  EXPECT_TRUE(has_code(res.diagnostics, "CCS-E002"))
      << render_text(res.diagnostics);
  EXPECT_EQ(solve_status_name(res.status), "infeasible");
}

TEST(SolverApi, RepairModeRejectsAGarbageFaultSpec) {
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  req.mode = SolveMode::kRepair;
  req.faults = "explode everything\n";
  const SolveResponse res = solver.solve(req);
  EXPECT_EQ(res.status, SolveStatus::kInvalidRequest);
  EXPECT_TRUE(has_code(res.diagnostics, "CCS-F001"));
  EXPECT_TRUE(has_code(res.diagnostics, "CCS-E001"));
}

TEST(SolverApi, BagIsAlwaysFinalizedAndRenderable) {
  // finalize() sorts and dedupes; a second finalize must be a no-op, so a
  // rendered response is stable however the caller got it.
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "no such machine";
  SolveResponse res = solver.solve(req);
  const std::string once = render_text(res.diagnostics);
  res.diagnostics.finalize();
  EXPECT_EQ(render_text(res.diagnostics), once);
  EXPECT_NE(once.find("CCS-E001"), std::string::npos);
}

TEST(SolverApi, SolverForwardsItsObsContext) {
  // A cached answer from an earlier test would skip the compaction whose
  // counters this test looks for.
  SolveCache::global().clear();
  MetricsRegistry metrics;
  const ObsContext obs{nullptr, &metrics};
  const Solver solver(obs);
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  const SolveResponse res = solver.solve(req);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(metrics.counter("compaction.passes"), 0);
}

// ---------------------------------------------------------------------------
// The canonical-keyed SolveCache (engine/solve_cache.hpp): a certified
// answer to "this problem, renamed" is served through the permutation
// witness and re-certified (CCS-S016) instead of re-solved.

/// `g` with node v moved to position to_new[v]; names ride along so tests
/// can match tasks across the relabeling.
Csdfg relabel(const Csdfg& g, const std::vector<NodeId>& to_new) {
  const std::size_t n = g.node_count();
  std::vector<NodeId> inv(n);
  for (NodeId v = 0; v < n; ++v) inv[to_new[v]] = v;
  Csdfg out(g.name());
  for (NodeId p = 0; p < n; ++p)
    out.add_node(g.node(inv[p]).name, g.node(inv[p]).time);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    out.add_edge(to_new[ed.from], to_new[ed.to], ed.delay, ed.volume);
  }
  return out;
}

std::vector<NodeId> rotated_perm(std::size_t n, std::size_t shift) {
  std::vector<NodeId> perm(n);
  for (NodeId v = 0; v < n; ++v) perm[v] = (v + shift) % n;
  return perm;
}

TEST(SolverCache, RelabeledResubmissionHitsAndMatchesColdSolve) {
  SolveCache::global().clear();
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  const SolveResponse cold = solver.solve(req);
  ASSERT_TRUE(cold.ok()) << render_text(cold.diagnostics);
  ASSERT_TRUE(cold.certified);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.fingerprint.size(), 32u);

  std::mt19937 rng(20260809);
  std::vector<NodeId> perm(req.graph.node_count());
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  SolveRequest renamed = req;
  renamed.graph = relabel(req.graph, perm);
  const SolveResponse hot = solver.solve(renamed);
  ASSERT_TRUE(hot.ok()) << render_text(hot.diagnostics);
  EXPECT_TRUE(hot.cache_hit);
  EXPECT_TRUE(hot.certified);
  EXPECT_EQ(hot.fingerprint, cold.fingerprint);
  EXPECT_EQ(hot.best_length, cold.best_length);
  EXPECT_EQ(hot.startup_length, cold.startup_length);
  EXPECT_EQ(hot.lower_bound, cold.lower_bound);
  EXPECT_EQ(hot.gap, cold.gap);
  EXPECT_EQ(hot.optimal, cold.optimal);
  EXPECT_EQ(hot.stop_reason, cold.stop_reason);

  // Bit-identical modulo the witness: every task lands on the same PE at
  // the same step, and carries the same retiming, as its cold twin.
  ASSERT_TRUE(hot.schedule.has_value());
  EXPECT_EQ(hot.schedule->length(), cold.schedule->length());
  for (NodeId v = 0; v < renamed.graph.node_count(); ++v) {
    const NodeId orig = req.graph.node_by_name(renamed.graph.node(v).name);
    EXPECT_EQ(hot.schedule->placement(v).pe,
              cold.schedule->placement(orig).pe);
    EXPECT_EQ(hot.schedule->placement(v).cb,
              cold.schedule->placement(orig).cb);
    EXPECT_EQ(hot.retiming.of(v), cold.retiming.of(orig));
  }

  // Independent first-principles check of the translated table.
  const StoreAndForwardModel comm(*hot.machine);
  DiagnosticBag check;
  EXPECT_TRUE(certify_table(hot.graph, *hot.schedule, comm, "test", check,
                            req.certify_options))
      << render_text(check);

  const SolveCache::Stats stats = SolveCache::global().stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SolverCache, TryCachedRelabeledHitReportsTheGap) {
  SolveCache::global().clear();
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  const SolveResponse cold = solver.solve(req);
  ASSERT_TRUE(cold.ok()) << render_text(cold.diagnostics);
  ASSERT_GE(cold.gap, 0);

  SolveRequest renamed = req;
  renamed.graph = relabel(req.graph, rotated_perm(req.graph.node_count(), 3));
  // The first probe translates the isomorphic entry (tier 2); the second
  // replays that translated answer for the same bytes (tier 1).
  for (int probe = 0; probe < 2; ++probe) {
    const std::optional<SolveResponse> hot = solver.try_cached(renamed);
    ASSERT_TRUE(hot.has_value()) << probe;
    EXPECT_TRUE(hot->cache_hit) << probe;
    EXPECT_EQ(hot->lower_bound, cold.lower_bound) << probe;
    EXPECT_EQ(hot->gap, cold.gap) << probe;
    EXPECT_EQ(hot->optimal, cold.optimal) << probe;
  }
  EXPECT_EQ(SolveCache::global().stats().identical_hits, 1);
}

TEST(SolverCache, StartupModeRoundTripsWithoutRetiming) {
  SolveCache::global().clear();
  Solver solver;
  SolveRequest req;
  req.graph = paper_example19();
  req.arch = "ring 4";
  req.mode = SolveMode::kStartup;
  const SolveResponse cold = solver.solve(req);
  ASSERT_TRUE(cold.ok()) << render_text(cold.diagnostics);
  SolveRequest renamed = req;
  renamed.graph = relabel(req.graph, rotated_perm(req.graph.node_count(), 7));
  const SolveResponse hot = solver.solve(renamed);
  ASSERT_TRUE(hot.ok()) << render_text(hot.diagnostics);
  EXPECT_TRUE(hot.cache_hit);
  EXPECT_TRUE(hot.certified);
  EXPECT_EQ(hot.retiming.size(), 0u);
  EXPECT_EQ(hot.best_length, cold.best_length);
}

TEST(SolverCache, CorruptEntryIsRejectedAndColdSolveStillAnswers) {
  SolveCache::global().clear();
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  const SolveResponse cold = solver.solve(req);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(SolveCache::global().stats().entries, 1u);

  SolveCache::global().corrupt_entries_for_test();
  const SolveResponse res = solver.solve(req);
  ASSERT_TRUE(res.ok()) << render_text(res.diagnostics);
  EXPECT_FALSE(res.cache_hit);  // the corrupt entry was rejected
  EXPECT_TRUE(res.certified);
  EXPECT_EQ(res.best_length, cold.best_length);
  EXPECT_GE(SolveCache::global().stats().rejected, 1);
}

TEST(SolverCache, CorruptTranslationFailsRecertificationAsS016) {
  SolveCache::global().clear();
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.topology = make_mesh(2, 2);
  const SolveResponse cold = solver.solve(req);
  ASSERT_TRUE(cold.ok());
  SolveCache::global().corrupt_entries_for_test();

  const CanonResult canon = canonicalize(req.graph);
  const std::string key =
      solve_cache_key(canon, *req.topology, options_fingerprint(req));
  const auto entry = SolveCache::global().lookup(key);
  ASSERT_NE(entry, nullptr);
  const StoreAndForwardModel comm(*req.topology);
  SolveResponse out;
  EXPECT_FALSE(translate_cached(*entry, req, canon, comm, out));
  EXPECT_TRUE(has_code(out.diagnostics, "CCS-S016"))
      << render_text(out.diagnostics);
}

TEST(SolverCache, FormMismatchIsRejectedAsFingerprintCollision) {
  // A doctored entry whose key matched but whose canonical form differs is
  // the CCS-N003 case: rejected before translation is attempted.
  SolveRequest req;
  req.graph = paper_example6();
  req.topology = make_mesh(2, 2);
  const CanonResult canon = canonicalize(req.graph);
  SolveCache::Entry entry;
  entry.canonical_form = "n0m0;";  // not this graph
  const StoreAndForwardModel comm(*req.topology);
  SolveResponse out;
  EXPECT_FALSE(translate_cached(entry, req, canon, comm, out));
  EXPECT_TRUE(has_code(out.diagnostics, "CCS-N003"))
      << render_text(out.diagnostics);
}

TEST(SolverCache, WallClockBudgetsAndUncertifiedRequestsBypassTheCache) {
  SolveCache::global().clear();
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  req.options.budget.deadline_ms = 10'000;
  const SolveResponse timed = solver.solve(req);
  ASSERT_TRUE(timed.ok());
  EXPECT_FALSE(timed.cache_hit);
  EXPECT_TRUE(timed.fingerprint.empty());  // never canonicalized

  SolveRequest uncertified;
  uncertified.graph = paper_example6();
  uncertified.arch = "mesh 2 2";
  uncertified.certify = false;
  const SolveResponse res = solver.solve(uncertified);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.fingerprint.empty());
  EXPECT_EQ(SolveCache::global().stats().entries, 0u);
}

TEST(SolverCache, DisabledCacheBypassesWithoutDroppingEntries) {
  SolveCache& cache = SolveCache::global();
  cache.clear();
  Solver solver;
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  ASSERT_TRUE(solver.solve(req).ok());
  ASSERT_EQ(cache.stats().entries, 1u);
  cache.set_enabled(false);
  const SolveResponse res = solver.solve(req);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res.cache_hit);
  EXPECT_EQ(cache.stats().hits, 0);
  cache.set_enabled(true);
  EXPECT_TRUE(solver.solve(req).cache_hit);
}

TEST(SolverCache, ObsCountersRecordMissAndHit) {
  SolveCache::global().clear();
  MetricsRegistry metrics;
  const Solver solver(ObsContext{nullptr, &metrics});
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  ASSERT_TRUE(solver.solve(req).ok());
  EXPECT_EQ(metrics.counter("cache.miss"), 1);
  EXPECT_EQ(metrics.counter("cache.hit"), 0);
  ASSERT_TRUE(solver.solve(req).ok());
  EXPECT_EQ(metrics.counter("cache.hit"), 1);
  EXPECT_EQ(metrics.counter("cache.reject"), 0);
}

TEST(SolverCache, IdenticalResubmissionRidesTheExactReplayPath) {
  // Tier 1: resubmitting byte-identical bytes replays the memoized
  // certified response without canonicalizing or re-certifying; the
  // answer must still be indistinguishable from the translate path's.
  SolveCache::global().clear();
  MetricsRegistry metrics;
  const Solver solver(ObsContext{nullptr, &metrics});
  SolveRequest req;
  req.graph = paper_example6();
  req.arch = "mesh 2 2";
  const SolveResponse cold = solver.solve(req);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(cold.certified);
  EXPECT_EQ(metrics.counter("cache.hit.identical"), 0);

  const SolveResponse replay = solver.solve(req);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.cache_hit);
  EXPECT_TRUE(replay.certified);
  EXPECT_EQ(replay.fingerprint, cold.fingerprint);
  EXPECT_EQ(replay.best_length, cold.best_length);
  EXPECT_EQ(replay.startup_length, cold.startup_length);
  EXPECT_EQ(replay.lower_bound, cold.lower_bound);
  EXPECT_EQ(replay.gap, cold.gap);
  EXPECT_EQ(replay.optimal, cold.optimal);
  EXPECT_EQ(metrics.counter("cache.hit.identical"), 1);

  const SolveCache::Stats stats = SolveCache::global().stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.identical_hits, 1);
  EXPECT_EQ(stats.misses, 1);

  // A *renamed* graph is different bytes: it must take the translate path
  // (full CCS-S016 re-certification), not the replay path.
  SolveRequest renamed = req;
  renamed.graph = Csdfg("paper6-renamed");
  for (NodeId v = 0; v < req.graph.node_count(); ++v)
    renamed.graph.add_node("t" + std::to_string(v), req.graph.node(v).time);
  for (EdgeId e = 0; e < req.graph.edge_count(); ++e) {
    const Edge& edge = req.graph.edge(e);
    renamed.graph.add_edge(edge.from, edge.to, edge.delay, edge.volume);
  }
  const SolveResponse translated = solver.solve(renamed);
  ASSERT_TRUE(translated.ok());
  EXPECT_TRUE(translated.cache_hit);
  EXPECT_TRUE(translated.certified);
  EXPECT_EQ(translated.best_length, cold.best_length);
  const SolveCache::Stats after = SolveCache::global().stats();
  EXPECT_EQ(after.hits, 2);
  EXPECT_EQ(after.identical_hits, 1);  // the rename re-certified instead
}

TEST(SolverCacheConcurrency, ConcurrentSolversShareTheCacheSafely) {
  // Portfolio-worker shape: many threads, each its own Solver, racing over
  // the same problem under different task numberings.  TSan (the CI
  // concurrency job runs this test under -fsanitize=thread) must stay
  // silent, and every response must be certified with the same length.
  SolveCache::global().clear();
  SolveRequest base;
  base.graph = paper_example6();
  base.arch = "mesh 2 2";
  const SolveResponse reference = Solver().solve(base);
  ASSERT_TRUE(reference.ok());

  constexpr std::size_t kThreads = 8;
  std::vector<int> lengths(kThreads * 2, -1);
  std::vector<int> certified(kThreads * 2, 0);  // not vector<bool>: bit races
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t round = 0; round < 2; ++round) {
        Solver solver;
        SolveRequest req = base;
        req.graph = relabel(
            base.graph,
            rotated_perm(base.graph.node_count(),
                         (t + round) % base.graph.node_count()));
        const SolveResponse res = solver.solve(req);
        lengths[t * 2 + round] = res.ok() ? res.best_length : -1;
        certified[t * 2 + round] = res.certified ? 1 : 0;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::size_t i = 0; i < kThreads * 2; ++i) {
    EXPECT_EQ(lengths[i], reference.best_length) << i;
    EXPECT_TRUE(certified[i]) << i;
  }
  const SolveCache::Stats stats = SolveCache::global().stats();
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(static_cast<std::size_t>(stats.hits + stats.misses),
            kThreads * 2 + 1);
}

// ---------------------------------------------------------------------------
// The capacity-bounded cache: LRU eviction order, lookup freshening, and
// re-certification of a re-inserted evicted key.

/// Two-task cycle whose fingerprint varies with the execution times.  The
/// name suffix changes the serialized bytes (the tier-1 exact key) without
/// touching the canonical form, so tests can force the translate path.
Csdfg two_task(int t0, int t1, const std::string& suffix = "") {
  Csdfg g("lru");
  g.add_node("a" + suffix, t0);
  g.add_node("b" + suffix, t1);
  g.add_edge(0, 1, 0, 1);
  g.add_edge(1, 0, 2, 1);
  return g;
}

SolveResponse solve_two_task(const Solver& solver, int t0, int t1,
                             std::size_t rotation = 0) {
  SolveRequest req;
  req.graph = rotation == 0 ? two_task(t0, t1)
                            : relabel(two_task(t0, t1),
                                      rotated_perm(2, rotation));
  req.arch = "mesh 2 1";
  return solver.solve(req);
}

TEST(SolverCacheLru, EvictsLeastRecentlyUsedAtCapacity) {
  SolveCache& cache = SolveCache::global();
  cache.clear();
  cache.set_capacity(2);
  MetricsRegistry metrics;
  const Solver solver(ObsContext{nullptr, &metrics});

  ASSERT_TRUE(solve_two_task(solver, 1, 2).ok());  // A
  ASSERT_TRUE(solve_two_task(solver, 2, 3).ok());  // B
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evicted, 0);

  // C lands at capacity: A is the least recently used and must go.
  ASSERT_TRUE(solve_two_task(solver, 3, 4).ok());  // C evicts A
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evicted, 1);
  EXPECT_GE(metrics.counter("cache.evicted"), 1);

  // A renamed resubmission of A misses (it was evicted); B and C, still
  // resident, hit through the translate path.
  const SolveResponse a2 = solve_two_task(solver, 1, 2, 1);
  ASSERT_TRUE(a2.ok());
  EXPECT_FALSE(a2.cache_hit);
  const SolveResponse c2 = solve_two_task(solver, 3, 4, 1);
  ASSERT_TRUE(c2.ok());
  EXPECT_TRUE(c2.cache_hit);

  cache.set_capacity(SolveCache::kDefaultCapacity);
  cache.clear();
}

TEST(SolverCacheLru, LookupFreshensAgainstEviction) {
  SolveCache& cache = SolveCache::global();
  cache.clear();
  cache.set_capacity(2);
  const Solver solver;

  ASSERT_TRUE(solve_two_task(solver, 1, 2).ok());     // A
  ASSERT_TRUE(solve_two_task(solver, 2, 3).ok());     // B
  ASSERT_TRUE(solve_two_task(solver, 1, 2, 1).ok());  // touch A (translate)
  ASSERT_TRUE(solve_two_task(solver, 3, 4).ok());     // C evicts B, not A

  // Fresh byte representations so the probes exercise the canonical
  // store, not the tier-1 exact replay of lines already seen.
  SolveRequest probe_a;
  probe_a.graph = two_task(1, 2, "z");
  probe_a.arch = "mesh 2 1";
  const SolveResponse a = solver.solve(probe_a);
  EXPECT_TRUE(a.cache_hit) << "freshened entry was evicted";
  SolveRequest probe_b;
  probe_b.graph = two_task(2, 3, "z");
  probe_b.arch = "mesh 2 1";
  const SolveResponse b = solver.solve(probe_b);
  EXPECT_FALSE(b.cache_hit) << "stale entry survived past capacity";

  cache.set_capacity(SolveCache::kDefaultCapacity);
  cache.clear();
}

TEST(SolverCacheLru, ReinsertedEvictedKeyIsRecertifiedOnHit) {
  SolveCache& cache = SolveCache::global();
  cache.clear();
  cache.set_capacity(1);
  const Solver solver;

  ASSERT_TRUE(solve_two_task(solver, 1, 2).ok());  // A
  ASSERT_TRUE(solve_two_task(solver, 2, 3).ok());  // B evicts A
  const SolveResponse again = solve_two_task(solver, 1, 2, 1);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.cache_hit);  // re-solved and re-inserted (evicts B)

  // The re-inserted entry answers a fresh renaming (new bytes, same
  // canonical form) through the full translate + CCS-S016
  // re-certification path.
  SolveRequest fresh;
  fresh.graph = two_task(1, 2, "x");
  fresh.arch = "mesh 2 1";
  const SolveResponse hot = solver.solve(fresh);
  ASSERT_TRUE(hot.ok());
  EXPECT_TRUE(hot.cache_hit);
  EXPECT_TRUE(hot.certified);
  EXPECT_EQ(cache.stats().evicted, 2);

  cache.set_capacity(SolveCache::kDefaultCapacity);
  cache.clear();
}

TEST(SolverCacheConcurrency, MixedWorkloadOnOneSolverKeepsCountersExact) {
  // One shared Solver hammered from N threads with a mix of byte-identical,
  // isomorphic, and novel requests.  Every response must be certified or
  // carry diagnostics, and the counter invariant must hold exactly:
  // each cacheable probe records one of hit/miss/rejected per lookup.
  SolveCache::global().clear();
  const Solver solver;
  const Csdfg base = paper_example6();

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 3;
  std::vector<int> sane(kThreads * kRounds, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        SolveRequest req;
        req.arch = "mesh 2 2";
        if (round == 0) {
          req.graph = base;  // byte-identical across threads
        } else if (round == 1) {
          req.graph = relabel(
              base, rotated_perm(base.node_count(),
                                 1 + t % (base.node_count() - 1)));
        } else {
          req.graph = two_task(static_cast<int>(t) + 1,
                               static_cast<int>(t) + 2);  // novel per thread
        }
        const SolveResponse res = solver.solve(req);
        const bool answered = res.ok() && res.certified;
        const bool diagnosed = !res.diagnostics.empty();
        sane[t * kRounds + round] = answered || diagnosed ? 1 : 0;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::size_t i = 0; i < sane.size(); ++i)
    EXPECT_TRUE(sane[i]) << "request " << i
                         << " neither certified nor diagnosed";

  const SolveCache::Stats stats = SolveCache::global().stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.rejected, stats.lookups);
  EXPECT_EQ(stats.lookups,
            static_cast<long long>(kThreads * kRounds));
  EXPECT_EQ(stats.rejected, 0);
  SolveCache::global().clear();
}

}  // namespace
}  // namespace ccs

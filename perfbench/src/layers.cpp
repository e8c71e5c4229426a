#include "layers.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "analysis/bounds.hpp"
#include "analysis/canon.hpp"
#include "analysis/certify.hpp"
#include "arch/comm_model.hpp"
#include "core/budget.hpp"
#include "core/list_scheduler.hpp"
#include "engine/portfolio.hpp"
#include "engine/solve_cache.hpp"
#include "io/schedule_format.hpp"
#include "io/serve_codec.hpp"
#include "io/text_format.hpp"

namespace perfbench {

namespace {

/// Runs `f`, adds its wall time to `acc` and returns its result.
template <class F>
auto timed(double& acc, F&& f) {
  const Clock::time_point t0 = Clock::now();
  auto result = f();
  acc += ms_since(t0);
  return result;
}

/// portfolio_compact's documented preemption rule at jobs=1: an attempt
/// stops at a pass boundary once its own best sits on the lower bound or
/// an earlier attempt already reached it.
class ReplayStopToken final : public ccs::BudgetStopToken {
public:
  ReplayStopToken(int lower_bound, bool earlier_at_bound)
      : lower_bound_(lower_bound), earlier_at_bound_(earlier_at_bound) {}
  [[nodiscard]] bool stop_requested(int current_best) const override {
    return current_best <= lower_bound_ || earlier_at_bound_;
  }

private:
  int lower_bound_;
  bool earlier_at_bound_;
};

/// certify_table with its nested CCS-S015 bound cross-check repeated
/// separately; adds certify self time and cross-check time.
bool traced_certify(const ccs::Csdfg& g, const ccs::ScheduleTable& table,
                    const ccs::CommModel& comm, const std::string& label,
                    ccs::DiagnosticBag& bag, LayerTimes& t) {
  double outer = 0;
  const bool ok = timed(outer, [&] {
    return ccs::certify_table(g, table, comm, label, bag);
  });
  std::vector<int> speeds(table.num_pes());
  for (ccs::PeId p = 0; p < table.num_pes(); ++p)
    speeds[p] = table.pe_speed(p);
  double nested = 0;
  ccs::DiagnosticBag scratch;
  (void)timed(nested, [&] {
    return ccs::cross_check_schedule_bound(
        g, table.length(), speeds, table.pipelined_pes(), comm,
        ccs::SourceSpan{label, 0}, scratch);
  });
  t.certify += outer - nested;
  t.certify_bound += nested;
  t.replay += nested;
  return ok;
}

/// cyclo_compact with its nested start-up schedule repeated separately;
/// returns the run and adds compaction self time and start-up time.
/// `compact_total` receives the outer call's full time.
ccs::CycloCompactionResult traced_compact(
    const ccs::Csdfg& g, const ccs::Topology& topo, const ccs::CommModel& comm,
    const ccs::CycloCompactionOptions& options, LayerTimes& t,
    double& compact_total) {
  double outer = 0;
  ccs::CycloCompactionResult run =
      timed(outer, [&] { return ccs::cyclo_compact(g, topo, comm, options); });
  double nested = 0;
  (void)timed(nested, [&] {
    return ccs::start_up_schedule(g, topo, comm, options.startup);
  });
  t.compact += outer - nested;
  t.startup += nested;
  t.replay += nested;
  compact_total += outer;
  return run;
}

void fill_from_run(ccs::SolveResponse& res, ccs::CycloCompactionResult run) {
  res.graph = std::move(run.retimed_graph);
  res.retiming = run.retiming;
  res.startup_length = run.startup.length();
  res.best_length = run.best.length();
  res.stop_reason = run.stop_reason;
  res.remap_slots_scanned = run.remap_stats.slots_scanned;
  res.an_evaluations = run.remap_stats.an_evaluations;
  res.engine_backend = run.backend;
  res.schedule.emplace(std::move(run.best));
}

void traced_schedule(const ccs::SolveRequest& q, const ccs::Topology& topo,
                     const ccs::CommModel& comm, ccs::SolveResponse& res,
                     LayerTimes& t) {
  double compact_total = 0;
  fill_from_run(res, traced_compact(q.graph, topo, comm, q.options, t,
                                    compact_total));
  res.certified = traced_certify(res.graph, *res.schedule, comm,
                                 "solver/schedule", res.diagnostics, t);
  res.lower_bound = std::max(1, timed(t.bounds, [&] {
                                  return ccs::compute_bounds(
                                      q.graph, topo, comm, q.options);
                                }).value);
}

void traced_portfolio(const ccs::SolveRequest& q, const ccs::Topology& topo,
                      const ccs::CommModel& comm, ccs::SolveResponse& res,
                      LayerTimes& t) {
  ccs::PortfolioOptions popt = q.portfolio;
  popt.base = q.options;
  popt.certify_winner = q.certify;
  double outer = 0;
  ccs::PortfolioResult pr = timed(outer, [&] {
    return ccs::portfolio_compact(q.graph, topo, comm, popt);
  });

  // Nested calls, repeated in the order portfolio_compact makes them;
  // the whole block is repeat work, not request-path time.
  const Clock::time_point replay_t0 = Clock::now();
  const double replay_before = t.replay;
  double nested = 0;
  const int lower_bound = std::max(1, timed(nested, [&] {
                                        return ccs::compute_bounds(
                                            q.graph, topo, comm, popt.base);
                                      }).value);
  t.bounds += nested;
  int incumbent = std::numeric_limits<int>::max();
  for (ccs::AttemptConfig& attempt : ccs::portfolio_attempts(q.graph, popt)) {
    const ReplayStopToken token(lower_bound, incumbent <= lower_bound);
    attempt.options.budget.stop = &token;
    const ccs::CycloCompactionResult run = traced_compact(
        q.graph, topo, comm, attempt.options, t, nested);
    incumbent = std::min(incumbent, run.best.length());
  }
  if (popt.certify_winner) {
    const double before = t.certify + t.certify_bound;
    ccs::DiagnosticBag scratch;
    (void)traced_certify(pr.winner.retimed_graph, pr.winner.best, comm,
                         "portfolio/" + pr.winner_label, scratch, t);
    nested += t.certify + t.certify_bound - before;
  }
  t.portfolio += outer - nested;
  t.replay = replay_before + ms_since(replay_t0);

  res.attempts = pr.attempts;
  res.winner_attempt = static_cast<int>(pr.winner_attempt);
  res.winner_label = pr.winner_label;
  res.lower_bound = pr.lower_bound;
  res.certified = !q.certify || pr.certified;
  for (const ccs::Diagnostic& d : pr.certification.diagnostics())
    res.diagnostics.add(d);
  fill_from_run(res, std::move(pr.winner));
}

}  // namespace

ccs::SolveResponse traced_solve(const ccs::SolveRequest& q,
                                bool canon_in_publish, LayerTimes& t) {
  const ccs::Solver solver;
  ccs::SolveCache& cache = ccs::SolveCache::global();
  const long long identical_before = cache.stats().identical_hits;
  double probe = 0;
  std::optional<ccs::SolveResponse> hit =
      timed(probe, [&] { return solver.try_cached(q); });
  // A tier-1 replay never canonicalizes; every other probe does.
  double canon = 0;
  std::optional<ccs::CanonResult> canonical;
  if (cache.stats().identical_hits == identical_before) {
    canonical = timed(canon, [&] { return ccs::canonicalize(q.graph); });
    t.canon += canon;
    t.replay += canon;
  }
  if (hit.has_value()) {
    t.cache_hit += probe - canon;
    return std::move(*hit);
  }
  t.cache_miss += probe - canon;

  ccs::SolveResponse res;
  if (canonical.has_value())
    res.fingerprint = ccs::fingerprint_hex(canonical->fingerprint);
  const ccs::Topology topo =
      timed(t.topology, [&] { return ccs::parse_topology(q.arch); });
  const ccs::StoreAndForwardModel comm(topo);
  res.machine = topo;
  if (q.mode == ccs::SolveMode::kPortfolio)
    traced_portfolio(q, topo, comm, res, t);
  else
    traced_schedule(q, topo, comm, res, t);
  res.status = res.certified ? ccs::SolveStatus::kOk
                             : ccs::SolveStatus::kUncertified;
  res.gap = res.best_length - res.lower_bound;
  res.optimal = res.certified && res.gap == 0;
  res.diagnostics.finalize();

  double publish = 0;
  timed(publish, [&] {
    solver.publish(q, res);
    return 0;
  });
  double publish_canon = 0;
  (void)timed(publish_canon, [&] { return ccs::canonicalize(q.graph); });
  t.cache_publish += publish - publish_canon;
  // Serve's publish canonicalizes on the request path.  Solver::solve's
  // insert reuses the probe's canonical form, so there the canonicalization
  // inside publish is not request-path work either.
  if (canon_in_publish) {
    t.canon += publish_canon;
    t.replay += publish_canon;
  } else {
    t.replay += 2 * publish_canon;
  }
  return res;
}

std::string traced_serve_line(const std::string& line, LayerTimes& t) {
  const ccs::ServeParse parse = timed(t.serve_codec, [&] {
    return ccs::parse_serve_request(line, kServeMaxLineBytes);
  });
  ccs::ServeResponseFields f;
  f.id = parse.request.id;
  if (!parse.ok) {
    f.status = "error";
    f.code = parse.code;
    f.message = parse.message;
  } else if (parse.request.has_deadline && parse.request.deadline_ms <= 0) {
    f.status = "rejected";
    f.code = "CCS-E003";
    f.message = "deadline_ms already spent at admission";
  } else {
    const ccs::ServeRequest& r = parse.request;
    const ccs::Csdfg graph =
        timed(t.parse, [&] { return ccs::parse_csdfg(r.graph); });
    Problem p{"", r.graph, r.arch,
              r.mode == "portfolio" ? ccs::SolveMode::kPortfolio
                                    : ccs::SolveMode::kSchedule,
              r.jobs};
    const ccs::SolveResponse res =
        traced_solve(make_request(p, graph), /*canon_in_publish=*/true, t);
    (void)timed(t.serve_codec, [&] {
      f.status = res.ok() ? "ok" : "uncertified";
      f.cache_hit = res.cache_hit;
      f.certified = res.certified;
      f.has_result = res.schedule.has_value();
      f.best_length = res.best_length;
      f.startup_length = res.startup_length;
      f.lower_bound = res.lower_bound;
      f.gap = res.gap;
      f.optimal = res.optimal;
      f.fingerprint = res.fingerprint;
      if (r.emit && res.schedule.has_value()) {
        f.schedule_text =
            ccs::serialize_schedule(res.graph, *res.schedule, &res.retiming);
        f.graph_text = ccs::serialize_csdfg(res.graph);
      }
      return 0;
    });
  }
  return timed(t.serve_codec, [&] { return ccs::render_serve_response(f); });
}

}  // namespace perfbench

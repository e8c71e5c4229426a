// perfbench — the ccsched solve benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <sha>]
//
// Workloads (corpus.hpp has the generation parameters):
//   paper-portfolio  closed loop, 1 client: the paper's graphs x machines,
//                    cold portfolio solves (jobs=1) through ccs::Solver.
//   random-schedule  closed loop, 1 client: seeded random 16-40-node graphs
//                    on 16-PE machines, cold schedule solves.
//   serve-mixed      open loop at a fixed offered rate into an in-process
//                    run_serve with 2 workers: cold, portfolio, replayed,
//                    relabeled and refused request lines.
//
// --trace 0 measures the end-to-end metrics with nothing but the front end
// on the request path.  --trace 1 runs the same requests untraced and then
// layer by layer (layers.hpp) and prints the per-layer table.  Every answer
// is checked independently of the certifier (validate_schedule, retiming
// consistency, bound sanity, refusal codes, serve ordering).  The last
// stdout line is one JSON object.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/comm_model.hpp"
#include "core/validator.hpp"
#include "corpus.hpp"
#include "engine/solve_cache.hpp"
#include "io/schedule_format.hpp"
#include "io/text_format.hpp"
#include "layers.hpp"
#include "obs/trace_reader.hpp"
#include "serve_loop.hpp"

namespace perfbench {
namespace {

// Offered rate of serve-mixed, in request lines per second: about a quarter
// of the 1500-2000 lines/s one worker sustains on this mix (throughput_rps
// on a shared 4-core x86-64 host, GCC 12, Release).  Nearer to capacity,
// queueing made the open-loop latencies spread too far between runs to
// bound.
constexpr double kServeRate = 400.0;
constexpr int kServeJobs = 2;
constexpr std::size_t kServeQueueDepth = 256;
// Set-up is repeated this many times per run and reported as the median.
constexpr int kSetupReps = 15;
// Untraced, the serve-mixed line stream is replayed this many times, each
// to a fresh loop over a cleared cache; a line's latency sample is its
// fastest replay, as the closed loops keep each problem's fastest request.
// The replays fill two thirds of the run; saturated passes the rest.
constexpr int kServeReplays = 4;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< Sample count or derivation, for the table.
};

struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  long long gap_unreported = 0;  ///< Answers with a bound but gap -1.
  bool flagged = false;  ///< A run-level check failed.
  std::vector<std::string> problems;  ///< First few failure reasons.
  std::vector<Metric> metrics;
  /// Values that must repeat exactly across runs of one seed.
  std::vector<std::pair<std::string, std::string>> determinism;

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 8) problems.push_back(why);
  }
  void flag(const std::string& why) {
    flagged = true;
    if (problems.size() < 8) problems.push_back(why);
  }
  void add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(note)});
  }
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// CPU time of the calling thread.  A closed-loop solve with jobs=1 runs
/// wholly on the calling thread, so this is its cost without the time the
/// host gave the core to other processes.
double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// This process's peak resident set (VmHWM).  getrusage's ru_maxrss is no
/// use here: Linux carries it across exec, so it would report run.py's
/// Python interpreter whenever that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Machines parsed once per run for the independent answer checks.
using Machines = std::map<std::string, ccs::Topology>;

Machines parse_machines(const std::vector<Problem>& problems) {
  Machines m;
  for (const Problem& p : problems)
    if (m.find(p.arch) == m.end())
      m.emplace(p.arch, ccs::parse_topology(p.arch));
  return m;
}

/// Checks an answer without the certifier: the returned graph is a legal
/// retiming of the request graph, the table passes the core validator at
/// the claimed length, and the bound fields are consistent.  `gap` must be
/// `best_length - lower_bound`; only with `gap_may_be_unreported` may it be
/// -1 instead.  Returns the reason for a failure, or "".
std::string check_answer(const ccs::Csdfg& request, const ccs::Csdfg& retimed,
                         const ccs::ScheduleTable& table,
                         const ccs::Topology& machine, int best_length,
                         int lower_bound, int gap,
                         bool gap_may_be_unreported) {
  if (retimed.node_count() != request.node_count() ||
      retimed.edge_count() != request.edge_count())
    return "returned graph has a different shape";
  for (ccs::NodeId v = 0; v < request.node_count(); ++v)
    if (retimed.node(v).time != request.node(v).time)
      return "returned graph changed a node time";
  // Retiming consistency: r(u) - r(v) = d_r(e) - d(e) must have a solution.
  const std::size_t n = request.node_count();
  std::vector<long long> r(n, 0);
  std::vector<bool> seen(n, false);
  for (ccs::NodeId root = 0; root < n; ++root) {
    if (seen[root]) continue;
    seen[root] = true;
    std::vector<ccs::NodeId> stack = {root};
    while (!stack.empty()) {
      const ccs::NodeId u = stack.back();
      stack.pop_back();
      const auto visit = [&](ccs::EdgeId e) {
        const ccs::Edge& a = request.edge(e);
        const ccs::Edge& b = retimed.edge(e);
        if (a.from != b.from || a.to != b.to || a.volume != b.volume)
          return false;
        const long long shift =
            static_cast<long long>(b.delay) - static_cast<long long>(a.delay);
        const ccs::NodeId other = a.from == u ? a.to : a.from;
        const long long want = a.from == u ? r[u] - shift : r[u] + shift;
        if (!seen[other]) {
          seen[other] = true;
          r[other] = want;
          stack.push_back(other);
          return true;
        }
        return r[other] == want;
      };
      for (ccs::EdgeId e : request.out_edges(u))
        if (!visit(e)) return "returned graph is not a retiming of the request";
      for (ccs::EdgeId e : request.in_edges(u))
        if (!visit(e)) return "returned graph is not a retiming of the request";
    }
  }
  const ccs::StoreAndForwardModel comm(machine);
  const ccs::ValidationReport report =
      ccs::validate_schedule(retimed, table, comm);
  if (!report.ok()) return "schedule fails validation: " + report.to_string();
  if (table.length() != best_length) return "best_length != table length";
  if (lower_bound < 1) return "lower_bound < 1";
  if (best_length < lower_bound) return "best_length below lower_bound";
  if (gap == -1 && gap_may_be_unreported) return "";
  if (gap != best_length - lower_bound) return "gap inconsistent";
  return "";
}

/// Per-distinct-problem answer summary: quality and the deterministic
/// work counts.
struct Answer {
  int best_length = 0;
  int lower_bound = 0;
  bool optimal_gap = false;
  bool gap_unreported = false;
  long long slots_scanned = 0;
  long long an_evaluations = 0;
  long long attempts = 0;
  long long pruned = 0;
  std::string winner;

  [[nodiscard]] std::string signature() const {
    std::ostringstream os;
    os << best_length << '/' << lower_bound << '/' << slots_scanned << '/'
       << an_evaluations << '/' << attempts << '/' << winner;
    return os.str();
  }
};

Answer summarize(const ccs::SolveResponse& res) {
  Answer a;
  a.best_length = res.best_length;
  a.lower_bound = res.lower_bound;
  a.optimal_gap = res.gap == 0;
  a.slots_scanned = res.remap_slots_scanned;
  a.an_evaluations = res.an_evaluations;
  a.attempts = static_cast<long long>(res.attempts.size());
  for (const ccs::AttemptOutcome& o : res.attempts) a.pruned += o.pruned;
  a.winner = res.winner_label;
  return a;
}

/// Quality metrics over the distinct problems' first answers.
void add_quality(Outcome& out, const std::map<int, Answer>& first) {
  double log_sum = 0;
  long long optimal = 0;
  for (const auto& [k, a] : first) {
    log_sum += std::log(static_cast<double>(a.best_length) /
                        static_cast<double>(a.lower_bound));
    optimal += a.optimal_gap;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, first.size()));
  const std::string note = std::to_string(first.size()) + " problems";
  out.add("length_ratio_geomean", std::exp(log_sum / n), "ratio", note);
  out.add("optimal_share", static_cast<double>(optimal) / n, "ratio", note);
  std::ostringstream os;
  os.precision(17);
  os << std::exp(log_sum / n) << ' ' << optimal;
  out.determinism.emplace_back("quality", os.str());
}

/// Work counts over the distinct problems' first answers.
void add_counts(Outcome& out, const std::map<int, Answer>& first) {
  long long slots = 0, an = 0, attempts = 0, pruned = 0, portfolio = 0;
  for (const auto& [k, a] : first) {
    slots += a.slots_scanned;
    an += a.an_evaluations;
    attempts += a.attempts;
    pruned += a.pruned;
    portfolio += a.attempts > 0;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, first.size()));
  const std::string note = std::to_string(first.size()) + " problems";
  out.add("core.remap.slots_scanned", static_cast<double>(slots) / n, "count",
          note);
  out.add("core.remap.an_evaluations", static_cast<double>(an) / n, "count",
          note);
  out.add("engine.portfolio.attempts",
          portfolio == 0 ? 0.0
                         : static_cast<double>(attempts) /
                               static_cast<double>(portfolio),
          "count", std::to_string(portfolio) + " portfolio problems");
  out.add("engine.portfolio.pruned_share",
          attempts == 0 ? 0.0
                        : static_cast<double>(pruned) /
                              static_cast<double>(attempts),
          "ratio", std::to_string(attempts) + " attempts");
  out.determinism.emplace_back(
      "counts", std::to_string(slots) + " " + std::to_string(an) + " " +
                    std::to_string(attempts) + " " + std::to_string(pruned));
}

/// p50 and p95 of `samples`, each the fastest of `requests_per_sample`
/// requests.
void add_latency(Outcome& out, const std::vector<double>& samples,
                 long long requests_per_sample, const std::string& what) {
  const std::string note = std::to_string(samples.size()) + " " + what;
  const long long beyond =
      static_cast<long long>(
          std::floor(0.05 * static_cast<double>(samples.size()))) *
      requests_per_sample;
  out.add("latency_ms_p50", percentile(samples, 0.50), "ms", note);
  out.add("latency_ms_p95", percentile(samples, 0.95), "ms",
          note + "; " + std::to_string(beyond) + " requests beyond");
  if (beyond < 10)
    std::fprintf(stderr, "warning: fewer than 10 requests beyond p95\n");
}

/// Per-layer table from a traced pass over `requests` requests.
void add_layers(Outcome& out, const LayerTimes& t, double traced_wall_ms,
                double untraced_wall_ms, long long requests) {
  const double n = static_cast<double>(std::max<long long>(1, requests));
  const std::string per = "mean per request over " + std::to_string(requests);
  const auto ms = [&](const char* name, double total, const char* how) {
    out.add(name, total / n, "ms", per + how);
  };
  ms("io.parse.ms", t.parse, "");
  ms("arch.topology.ms", t.topology, "");
  ms("analysis.canon.ms", t.canon, "");
  ms("engine.cache.hit.ms", t.cache_hit, ", self (derived)");
  ms("engine.cache.miss.ms", t.cache_miss, ", self (derived)");
  ms("engine.cache.publish.ms", t.cache_publish, ", self (derived)");
  ms("analysis.bounds.ms", t.bounds, "");
  ms("core.startup.ms", t.startup, "");
  ms("core.compact.ms", t.compact, ", self (derived)");
  ms("engine.portfolio.ms", t.portfolio, ", self (derived)");
  ms("analysis.certify.ms", t.certify, ", self (derived)");
  ms("analysis.certify_bound.ms", t.certify_bound, "");
  ms("io.serve_codec.ms", t.serve_codec, "");
  const double path_ms = traced_wall_ms - t.replay;
  out.add("bench.trace_overhead_ratio", path_ms / untraced_wall_ms, "ratio",
          "traced request-path wall / untraced wall");
  out.add("bench.trace_coverage", t.total() / path_ms, "ratio",
          "sum of layer self times / traced request-path wall");
}

void add_cache_stats(Outcome& out, const ccs::SolveCache::Stats& s) {
  out.add("engine.cache.hit_ratio",
          s.lookups == 0 ? 0.0
                         : static_cast<double>(s.hits) /
                               static_cast<double>(s.lookups),
          "ratio", std::to_string(s.lookups) + " lookups");
  out.add("engine.cache.rejected", static_cast<double>(s.rejected), "count");
}

void add_serve_summary(Outcome& out, const ccs::ServeSummary* s) {
  const auto v = [&](long long ccs::ServeSummary::*field) {
    return s == nullptr ? 0.0 : static_cast<double>(s->*field);
  };
  out.add("serve.shed", v(&ccs::ServeSummary::shed), "count");
  out.add("serve.degraded", v(&ccs::ServeSummary::degraded), "count");
  out.add("serve.parse_errors", v(&ccs::ServeSummary::parse_errors), "count");
  out.add("serve.deadline_rejects", v(&ccs::ServeSummary::deadline_rejects),
          "count");
  out.add("serve.cache_hits", v(&ccs::ServeSummary::cache_hits), "count");
}

// --- closed-loop workloads ---------------------------------------------------

struct ClosedRun {
  /// Per problem, the fastest of its correctly answered requests in this
  /// run (+inf if none): thread CPU, wall and process CPU time.  The host's
  /// speed shifts in phases of seconds; one request per pass, passes spread
  /// over the run and the minimum per problem keep those phases out of the
  /// per-request cost.
  std::vector<double> best_thread_ms, best_wall_ms, best_cpu_ms;
  double wall_ms = 0;  ///< Sum of all solve calls' wall times.
  long long requests = 0;
  long long correct = 0;
  long long passes = 0;  ///< Whole passes over the corpus.
  ccs::SolveCache::Stats cache;  ///< Summed over requests.
};

/// The finite entries of `best`: one per problem answered correctly.
std::vector<double> answered(const std::vector<double>& best) {
  std::vector<double> v;
  for (const double x : best)
    if (std::isfinite(x)) v.push_back(x);
  return v;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

/// How long a closed loop runs.
struct Pace {
  double min_ms = 0;           ///< Keep going at least this long,
  long long min_slots = 0;     ///< and over at least this many slots.
  /// Instead run whole passes over the corpus, as many as fit in `min_ms`
  /// (at least one): every run then weighs each problem equally.
  bool whole_passes = false;
};

/// Runs the corpus's requests in order, each against a cleared cache,
/// until `pace` is met.  `solve` answers one request; every answer is
/// checked and summarized.
ClosedRun closed_loop(
    const ClosedCorpus& c, const Machines& machines, const Pace& pace,
    const std::function<ccs::SolveResponse(const Problem&)>& solve,
    std::map<int, Answer>& first, Outcome& out) {
  ClosedRun run;
  const double inf = std::numeric_limits<double>::infinity();
  run.best_thread_ms.assign(c.problems.size(), inf);
  run.best_wall_ms.assign(c.problems.size(), inf);
  run.best_cpu_ms.assign(c.problems.size(), inf);
  ccs::SolveCache& cache = ccs::SolveCache::global();
  const Clock::time_point t0 = Clock::now();
  const long long n = static_cast<long long>(c.order.size());
  long long slots = 0;
  const auto more = [&] {
    if (slots < pace.min_slots) return true;
    if (!pace.whole_passes) return ms_since(t0) < pace.min_ms;
    if (slots % n != 0) return true;
    const double elapsed = ms_since(t0);
    return elapsed + elapsed / static_cast<double>(slots / n) <= pace.min_ms;
  };
  for (; more(); ++slots) {
    const int k =
        static_cast<int>(c.order[static_cast<std::size_t>(slots % n)]);
    const Problem& p = c.problems[static_cast<std::size_t>(k)];
    cache.clear();
    const double cpu0 = cpu_ms();
    const double thread0 = thread_cpu_ms();
    const Clock::time_point r0 = Clock::now();
    const ccs::SolveResponse res = solve(p);
    const double dt = ms_since(r0);
    const double thread_dt = thread_cpu_ms() - thread0;
    const double cpu_dt = cpu_ms() - cpu0;
    const ccs::SolveCache::Stats s = cache.stats();
    run.cache.lookups += s.lookups;
    run.cache.hits += s.hits;
    run.cache.rejected += s.rejected;
    run.wall_ms += dt;
    ++run.requests;

    std::string why;
    if (!res.ok() || !res.certified || !res.schedule.has_value()) {
      why = "status " + std::string(ccs::solve_status_name(res.status));
    } else {
      why = check_answer(ccs::parse_csdfg(p.graph_text), res.graph,
                         *res.schedule, machines.at(p.arch), res.best_length,
                         res.lower_bound, res.gap, false);
      if (!why.empty()) out.flag(p.label + ": certified answer " + why);
    }
    if (!why.empty()) {
      out.fail(p.label + ": " + why);
      continue;
    }
    ++run.correct;
    const auto u = static_cast<std::size_t>(k);
    run.best_thread_ms[u] = std::min(run.best_thread_ms[u], thread_dt);
    run.best_wall_ms[u] = std::min(run.best_wall_ms[u], dt);
    run.best_cpu_ms[u] = std::min(run.best_cpu_ms[u], cpu_dt);
    const Answer a = summarize(res);
    const auto [it, inserted] = first.emplace(k, a);
    if (!inserted && it->second.signature() != a.signature())
      out.flag(p.label + ": answer differs between repetitions");
  }
  run.passes = slots / n;
  return run;
}

ccs::SolveResponse plain_solve(const Problem& p) {
  const ccs::Solver solver;
  return solver.solve(make_request(p, ccs::parse_csdfg(p.graph_text)));
}

Outcome run_closed(const std::string& workload, std::uint64_t seed,
                   double seconds, bool trace) {
  const auto make = [&] {
    return workload == "paper-portfolio" ? paper_portfolio_corpus(seed)
                                         : random_schedule_corpus(seed);
  };
  std::vector<double> setup_ms;
  ClosedCorpus corpus;
  Machines machines;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    corpus = make();
    machines = parse_machines(corpus.problems);
    setup_ms.push_back(ms_since(t0));
  }
  Outcome out;
  const long long n = static_cast<long long>(corpus.problems.size());
  {  // Warm-up, excluded from every measurement.
    std::map<int, Answer> ignored;
    Outcome scratch;
    ClosedCorpus head = corpus;
    head.order.resize(std::min<std::size_t>(3, head.order.size()));
    (void)closed_loop(head, machines, Pace{0, 3, false}, plain_solve,
                      ignored, scratch);
  }

  std::map<int, Answer> first;
  if (!trace) {
    const ClosedRun run =
        closed_loop(corpus, machines,
                    Pace{seconds * 1e3, n, true},
                    plain_solve, first, out);
    out.attempted = run.requests;
    const std::vector<double> latency = answered(run.best_thread_ms);
    const std::vector<double> wall = answered(run.best_wall_ms);
    const std::string per = ", each the fastest of " +
                            std::to_string(run.passes) + " requests";
    add_latency(out, latency, run.passes, "problems" + per);
    out.add("throughput_rps",
            static_cast<double>(wall.size()) / (sum(wall) / 1e3), "1/s",
            std::to_string(wall.size()) + " problems / summed solve wall" +
                per);
    out.add("cpu_ms_per_request",
            sum(answered(run.best_cpu_ms)) / static_cast<double>(wall.size()),
            "ms", "process CPU" + per);
    out.add("correct_share",
            static_cast<double>(run.correct) /
                static_cast<double>(run.requests),
            "ratio");
    add_quality(out, first);
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("setup_s", median(setup_ms) / 1e3, "s",
            "median of " + std::to_string(kSetupReps) + " set-ups");
    return out;
  }

  // Traced: whole passes untraced, then the same passes layer by layer.
  const ClosedRun plain =
      closed_loop(corpus, machines, Pace{seconds * 1e3 / 3, n, true},
                  plain_solve, first, out);
  LayerTimes times;
  std::map<int, Answer> traced_first;
  const ClosedRun traced = closed_loop(
      corpus, machines, Pace{0, plain.requests, false},
      [&](const Problem& p) {
        const ccs::Csdfg g = [&] {
          const Clock::time_point t0 = Clock::now();
          ccs::Csdfg parsed = ccs::parse_csdfg(p.graph_text);
          times.parse += ms_since(t0);
          return parsed;
        }();
        return traced_solve(make_request(p, g), false, times);
      },
      traced_first, out);
  out.attempted = plain.requests + traced.requests;
  for (const auto& [k, a] : traced_first)
    if (first.count(k) != 0 && first.at(k).best_length != a.best_length)
      out.flag(corpus.problems[static_cast<std::size_t>(k)].label +
               ": layered path and Solver disagree on the length");
  add_layers(out, times, traced.wall_ms, plain.wall_ms, traced.requests);
  add_counts(out, first);
  add_cache_stats(out, plain.cache);
  add_serve_summary(out, nullptr);
  out.add("serve.gap_unreported", 0, "count", "no serve loop");
  out.add("bench.generator_late_ms_p99", 0, "ms", "closed loop");

  if (workload == "paper-portfolio") {
    // The portfolio winner must not depend on --jobs.
    for (const auto& [k, a] : first) {
      Problem p = corpus.problems[static_cast<std::size_t>(k)];
      p.jobs = 4;
      ccs::SolveCache::global().clear();
      const ccs::SolveResponse res = plain_solve(p);
      ++out.attempted;
      if (res.winner_label != a.winner || res.best_length != a.best_length)
        out.flag(p.label + ": jobs=4 winner differs from jobs=1");
    }
  }
  return out;
}

// --- serve-mixed -------------------------------------------------------------

ccs::ServeOptions serve_options() {
  ccs::ServeOptions o;
  o.jobs = kServeJobs;
  o.queue_depth = kServeQueueDepth;
  o.max_line_bytes = kServeMaxLineBytes;
  o.drain_ms = 120'000;  // every admitted request is answered, never cut
  return o;
}

/// Checks one serve response against the line that caused it.  Returns
/// the failure reason or "", and fills `answer` for solve lines.
std::string check_serve_response(const ServeLine& line,
                                 const std::string& response,
                                 long long want_seq,
                                 const Machines& machines,
                                 const ServeCorpus& corpus, Answer& answer,
                                 bool& certified_invalid) {
  const ccs::ParsedTrace parsed = ccs::parse_trace_jsonl(response);
  if (!parsed.issues.empty() || parsed.events.size() != 1)
    return "unreadable response";
  const ccs::TraceEvent& e = parsed.events[0];
  std::string id, status, code;
  (void)e.string("id", id);
  (void)e.string("status", status);
  (void)e.string("code", code);
  long long seq = -1;
  if (want_seq >= 0 && (!e.number("seq", seq) || seq != want_seq))
    return "response seq " + std::to_string(seq) + " out of order";
  // Lines the codec cannot read get a synthesized id.
  if (id != line.id && line.kind != LineKind::kMalformed &&
      line.kind != LineKind::kOversized)
    return "response id " + id + " answers line " + line.id;
  const auto expect = [&](const char* want_status, const char* want_code) {
    return status == want_status && code == want_code
               ? std::string()
               : "expected " + std::string(want_status) + "/" + want_code +
                     ", got " + status + "/" + code;
  };
  switch (line.kind) {
    case LineKind::kMalformed:
    case LineKind::kOversized:
      return expect("error", "CCS-E001");
    case LineKind::kExpired:
      return expect("rejected", "CCS-E003");
    default:
      break;
  }
  if (status != "ok") return "status " + status;
  const ccs::TraceField* certified = e.find("certified");
  if (certified == nullptr || certified->text != "true")
    return "answer not certified";
  // Only translated (tier-2) cache hits may leave the gap unreported:
  // Solver::try_cached does not fill it, and serve.gap_unreported counts
  // them.
  const ccs::TraceField* cache_hit = e.find("cache_hit");
  const bool hit = cache_hit != nullptr && cache_hit->text == "true";
  long long best = 0, lb = 0, gap = 0;
  std::string graph_text, schedule_text;
  if (!e.number("length", best) || !e.number("lower_bound", lb) ||
      !e.number("gap", gap) || !e.string("graph", graph_text) ||
      !e.string("schedule", schedule_text))
    return "answer fields missing";
  const Problem& p = corpus.problems[static_cast<std::size_t>(line.problem)];
  try {
    const ccs::Csdfg retimed = ccs::parse_csdfg(graph_text);
    const ccs::ScheduleTable table = ccs::parse_schedule(retimed,
                                                         schedule_text);
    const std::string why = check_answer(
        ccs::parse_csdfg(line.graph_text), retimed, table,
        machines.at(p.arch), static_cast<int>(best), static_cast<int>(lb),
        static_cast<int>(gap), hit);
    if (!why.empty()) {
      certified_invalid = true;
      return "certified answer " + why;
    }
  } catch (const std::exception& ex) {
    certified_invalid = true;
    return std::string("certified answer unreadable: ") + ex.what();
  }
  answer.best_length = static_cast<int>(best);
  answer.lower_bound = static_cast<int>(lb);
  answer.optimal_gap = gap == 0;
  answer.gap_unreported = gap == -1;
  return "";
}

/// Checks a whole response stream; returns the number of correct answers.
/// With `seq_base` >= 0, response i must carry seq `seq_base + i`.
long long check_serve_stream(const ServeCorpus& corpus,
                             const std::vector<std::string>& responses,
                             long long seq_base, const Machines& machines,
                             std::map<int, Answer>* first, Outcome& out) {
  if (responses.size() != corpus.lines.size())
    out.flag("serve answered " + std::to_string(responses.size()) + " of " +
             std::to_string(corpus.lines.size()) + " lines");
  long long correct = 0;
  const std::size_t n = std::min(responses.size(), corpus.lines.size());
  for (std::size_t i = 0; i < corpus.lines.size(); ++i) {
    const ServeLine& line = corpus.lines[i];
    if (i >= n) {
      out.fail(line.id + ": no answer");
      continue;
    }
    Answer a;
    bool certified_invalid = false;
    const std::string why = check_serve_response(
        line, responses[i],
        seq_base < 0 ? -1 : seq_base + static_cast<long long>(i), machines,
        corpus, a, certified_invalid);
    if (!why.empty()) {
      out.fail(line.id + " (" + line_kind_name(line.kind) + "): " + why);
      if (certified_invalid) out.flag(line.id + ": " + why);
      continue;
    }
    ++correct;
    if (line.problem < 0) continue;
    if (a.gap_unreported) ++out.gap_unreported;
    if (first == nullptr) continue;
    // A class's first line is always a cold solve.  Later lines may be
    // answered from any certified isomorphic answer the cache holds.
    if (line.kind == LineKind::kCold || line.kind == LineKind::kPortfolio)
      first->emplace(line.problem, a);
  }
  return correct;
}

Outcome run_serve_mixed(std::uint64_t seed, double seconds, bool trace) {
  // Untraced, the line stream is replayed kServeReplays times; traced, it
  // runs once.
  const int replays = trace ? 1 : kServeReplays;
  const std::size_t lines = static_cast<std::size_t>(std::llround(
      kServeRate * seconds / (trace ? 3.0 : 1.5 * replays)));
  const ccs::ServeOptions opts = serve_options();
  std::vector<double> setup_ms;
  ServeCorpus corpus;
  Machines machines;
  std::unique_ptr<OpenLoop> loop;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    loop.reset();
    const Clock::time_point t0 = Clock::now();
    corpus = serve_mixed_corpus(seed, lines);
    machines = parse_machines(corpus.problems);
    loop = std::make_unique<OpenLoop>(opts);
    setup_ms.push_back(ms_since(t0));
  }

  Outcome out;
  std::vector<double> fastest(lines, 0);
  std::vector<double> late;
  std::map<int, Answer> first;
  ccs::ServeSummary summary;
  ccs::SolveCache::Stats cache;
  long long correct = 0;
  double best_cpu_ms = std::numeric_limits<double>::infinity();
  double best_rps = 0;
  for (int replay = 0; replay < replays; ++replay) {
    if (replay > 0) loop = std::make_unique<OpenLoop>(opts);
    ccs::SolveCache::global().clear();
    const double cpu0 = cpu_ms();
    const OpenLoopResult r = loop->run(corpus.lines, kServeRate);
    best_cpu_ms = std::min(best_cpu_ms, cpu_ms() - cpu0);
    loop.reset();
    summary = r.summary;
    cache = ccs::SolveCache::global().stats();
    correct += check_serve_stream(corpus, r.responses, 1, machines,
                                  replay == 0 ? &first : nullptr, out);
    out.attempted += static_cast<long long>(lines);
    for (std::size_t i = 0; i < lines; ++i) {
      late.push_back(r.sent_ms[i] - r.due_ms[i]);
      const double dt = i < r.response_ms.size()
                            ? r.response_ms[i] - r.due_ms[i]
                            : std::numeric_limits<double>::infinity();
      fastest[i] = replay == 0 ? dt : std::min(fastest[i], dt);
    }
    if (trace) continue;
    // Capacity: the same lines once more, written as fast as the loop
    // reads them, since the open loop's answer rate is only its offered
    // rate.  One worker: with two, whether a resubmission finds its
    // original in the cache depends on timing, and capacity swung 30%.
    ccs::SolveCache::global().clear();
    ccs::ServeOptions single = opts;
    single.jobs = 1;
    const SaturatedResult saturated = saturated_serve(corpus.lines, single);
    const long long saturated_correct = check_serve_stream(
        corpus, saturated.responses, 0, machines, nullptr, out);
    correct += saturated_correct;
    out.attempted += static_cast<long long>(lines);
    best_rps = std::max(best_rps, static_cast<double>(saturated_correct) /
                                      (saturated.wall_ms / 1e3));
  }
  const double late_p99 = percentile(late, 0.99);

  if (!trace) {
    const std::string per =
        "each the fastest of " + std::to_string(replays) + " replays";
    add_latency(out, fastest, replays, "lines, " + per);
    out.add("throughput_rps", best_rps, "1/s",
            "correct answers, 1 worker, lines sent as fast as read, best "
            "of " + std::to_string(replays) + " passes");
    out.add("cpu_ms_per_request",
            best_cpu_ms / static_cast<double>(lines), "ms",
            "process CPU of the fastest open-loop replay");
    out.add("correct_share",
            static_cast<double>(correct) /
                static_cast<double>(out.attempted),
            "ratio");
    add_quality(out, first);
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("setup_s", median(setup_ms) / 1e3, "s",
            "median of " + std::to_string(kSetupReps) + " set-ups");
    std::printf("generator lateness p99: %.3f ms\n", late_p99);
    std::printf("answers without a gap: %lld\n", out.gap_unreported);
    return out;
  }

  // Traced: the same lines through a single-worker loop as fast as it
  // reads them (the untraced reference), then layer by layer.
  ccs::SolveCache::global().clear();
  ccs::ServeOptions single = opts;
  single.jobs = 1;
  const double untraced_ms = saturated_serve(corpus.lines, single).wall_ms;
  ccs::SolveCache::global().clear();
  LayerTimes times;
  std::vector<std::string> responses;
  double traced_ms = 0;
  for (const ServeLine& line : corpus.lines) {
    const Clock::time_point t0 = Clock::now();
    responses.push_back(traced_serve_line(line.text, times));
    traced_ms += ms_since(t0);
  }
  out.attempted += static_cast<long long>(corpus.lines.size());
  std::map<int, Answer> traced_first;
  (void)check_serve_stream(corpus, responses, -1, machines, &traced_first,
                           out);
  add_layers(out, times, traced_ms, untraced_ms,
             static_cast<long long>(corpus.lines.size()));
  // Counts from one cold Solver solve of each class, which do not depend
  // on timing the way serve's cache hits do.
  ccs::SolveCache::global().clear();
  std::map<int, Answer> counted;
  for (const ServeLine& line : corpus.lines) {
    if (line.kind != LineKind::kCold && line.kind != LineKind::kPortfolio)
      continue;
    const Problem& p = corpus.problems[static_cast<std::size_t>(line.problem)];
    counted.emplace(line.problem, summarize(plain_solve(p)));
  }
  add_counts(out, counted);
  add_cache_stats(out, cache);
  add_serve_summary(out, &summary);
  out.add("serve.gap_unreported", static_cast<double>(out.gap_unreported),
          "count", "open-loop and traced answers with a bound but gap -1");
  out.add("bench.generator_late_ms_p99", late_p99, "ms",
          std::to_string(late.size()) + " lines");
  return out;
}

// --- output ------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o.push_back(c);
  }
  return o + "\"";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper-portfolio|random-schedule|serve-mixed --seed N "
               "--seconds S --trace 0|1 [--commit SHA]\n",
               why);
  return 2;
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) return usage("arguments come in --name value pairs");
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"})
    if (args.count(required) == 0)
      return usage((std::string("missing ") + required).c_str());
  const std::string workload = args["--workload"];
  const std::uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  const std::string trace_arg = args["--trace"];
  if (seconds <= 0 || seconds > 60) return usage("--seconds must be in (0, 60]");
  if (trace_arg != "0" && trace_arg != "1") return usage("--trace is 0 or 1");
  const bool trace = trace_arg == "1";

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type == "Debug" || build_type.empty()) {
    std::fprintf(stderr, "perfbench: refusing to time a '%s' build\n",
                 build_type.c_str());
    return 1;
  }
  const std::string commit =
      args.count("--commit") != 0 ? args["--commit"] : "unknown";
  std::printf(
      "provenance: {\"build_type\":%s,\"compiler\":%s,\"ccs_werror\":%s,"
      "\"nproc\":%u,\"commit\":%s,\"configure\":%s}\n",
      json_string(build_type).c_str(), json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_WERROR).c_str(),
      std::thread::hardware_concurrency(), json_string(commit).c_str(),
      json_string("cmake -S perfbench -B .bench_build/perfbench "
                  "-DCMAKE_BUILD_TYPE=Release -DCCS_WERROR=OFF")
          .c_str());
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);

  Outcome out;
  if (workload == "paper-portfolio" || workload == "random-schedule")
    out = run_closed(workload, seed, seconds, trace);
  else if (workload == "serve-mixed")
    out = run_serve_mixed(seed, seconds, trace);
  else
    return usage(("unknown workload " + workload).c_str());

  for (const Metric& m : out.metrics)
    std::printf("  %-30s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  for (const std::string& p : out.problems)
    std::printf("check failed: %s\n", p.c_str());

  std::string json = "{\"correct\":";
  json += out.failed == 0 && !out.flagged ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(out.attempted);
  json += ",\"failed\":" + std::to_string(out.failed);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (i > 0) json += ',';
    json += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
            ",\"unit\":" + json_string(m.unit) + "}";
  }
  json += "},\"determinism\":{";
  for (std::size_t i = 0; i < out.determinism.size(); ++i) {
    if (i > 0) json += ',';
    json += json_string(out.determinism[i].first) + ":" +
            json_string(out.determinism[i].second);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

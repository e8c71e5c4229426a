#include "corpus.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "io/text_format.hpp"
#include "obs/json.hpp"
#include "util/rng.hpp"
#include "workloads/generator.hpp"
#include "workloads/library.hpp"

namespace perfbench {

namespace {

// The macroblock loop of the repository's examples, embedded so that the
// benchmark's inputs cannot drift with the example data.
constexpr const char* kMacroblock = R"(graph macroblock
node fetch 1
node predict 1
node dct 2
node quant 1
node code 2
node idct 2
node recon 1
edge fetch predict 0 2
edge predict dct 0 2
edge dct quant 0 1
edge quant code 0 1
edge quant idct 0 1
edge idct recon 0 2
edge recon predict 1 2
edge code fetch 2 1
)";

std::vector<std::size_t> shuffled(std::size_t n, ccs::Rng& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng.engine());
  return order;
}

/// The repository benches' random graph shape (bench_scaling,
/// bench_portfolio, bench_canon): max(3, n/6) layers, max(2, n/8) back
/// edges and the generator's defaults otherwise.
ccs::Csdfg random_graph(std::size_t nodes, ccs::Rng& rng) {
  ccs::RandomDfgConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_layers = std::max<std::size_t>(3, nodes / 6);
  cfg.num_back_edges = std::max<std::size_t>(2, nodes / 8);
  return ccs::random_csdfg(cfg, rng.engine()());
}

/// An attribute-isomorphic copy of `g`: nodes renamed and reordered,
/// edges reordered.  Same canonical fingerprint, different bytes.
ccs::Csdfg relabel(const ccs::Csdfg& g, ccs::Rng& rng, std::size_t salt) {
  const std::vector<std::size_t> node_order = shuffled(g.node_count(), rng);
  std::vector<ccs::NodeId> new_id(g.node_count());
  ccs::Csdfg out(g.name() + "_r" + std::to_string(salt));
  for (std::size_t k = 0; k < node_order.size(); ++k) {
    const ccs::Node& n = g.node(node_order[k]);
    new_id[node_order[k]] =
        out.add_node("t" + std::to_string(salt) + "_" + std::to_string(k),
                     n.time);
  }
  for (const std::size_t e : shuffled(g.edge_count(), rng)) {
    const ccs::Edge& edge = g.edge(e);
    out.add_edge(new_id[edge.from], new_id[edge.to], edge.delay, edge.volume);
  }
  return out;
}

std::string solve_line(const std::string& id, const std::string& graph_text,
                       const Problem& p, long long deadline_ms,
                       bool with_deadline) {
  ccs::JsonWriter w;
  w.field("op", "solve").field("id", id).field("graph", graph_text)
      .field("arch", p.arch)
      .field("mode", p.mode == ccs::SolveMode::kPortfolio ? "portfolio"
                                                          : "schedule")
      .field("emit", true);
  if (p.mode == ccs::SolveMode::kPortfolio) w.field("jobs", p.jobs);
  if (with_deadline) w.field("deadline_ms", deadline_ms);
  return w.close();
}

}  // namespace

const char* line_kind_name(LineKind kind) {
  switch (kind) {
    case LineKind::kCold: return "cold";
    case LineKind::kPortfolio: return "portfolio";
    case LineKind::kReplay: return "replay";
    case LineKind::kRelabel: return "relabel";
    case LineKind::kMalformed: return "malformed";
    case LineKind::kExpired: return "expired";
    case LineKind::kOversized: return "oversized";
  }
  return "?";
}

ClosedCorpus paper_portfolio_corpus(std::uint64_t seed) {
  std::vector<ccs::Csdfg> graphs = {
      ccs::paper_example6(),       ccs::paper_example19(),
      ccs::elliptic_filter(),      ccs::lattice_filter(),
      ccs::iir_biquad_cascade(4),  ccs::fir_filter(16),
      ccs::diffeq_solver(),        ccs::correlator(8),
      ccs::parse_csdfg(std::string(kMacroblock))};
  const char* machines[] = {"complete 8", "linear_array 8", "ring 8",
                            "mesh 4 2", "hypercube 3"};
  ClosedCorpus c;
  for (const ccs::Csdfg& g : graphs) {
    const std::string text = ccs::serialize_csdfg(g);
    for (const char* m : machines)
      c.problems.push_back({g.name() + "@" + m, text, m,
                            ccs::SolveMode::kPortfolio, 1});
  }
  ccs::Rng rng(seed);
  c.order = shuffled(c.problems.size(), rng);
  return c;
}

ClosedCorpus random_schedule_corpus(std::uint64_t seed) {
  // One graph per size 16..40 on each machine, drawn once from a fixed
  // generator seed: a draw per run seed moved the median latency by up to
  // 60% and optimal_share by 3x between seeds, so every run measures this
  // one population and the run seed sets the request order.  50 problems
  // leave time for about ten passes in a 30 s run, so each problem's
  // fastest request is taken over samples spread across the run.
  const char* machines[] = {"mesh 4 4", "hypercube 4"};
  ccs::Rng population(kRandomPopulationSeed);
  ClosedCorpus c;
  for (std::size_t nodes = 16; nodes <= 40; ++nodes)
    for (const char* m : machines) {
      const ccs::Csdfg g = random_graph(nodes, population);
      c.problems.push_back({"random" + std::to_string(nodes) + "@" + m,
                            ccs::serialize_csdfg(g), m,
                            ccs::SolveMode::kSchedule, 1});
    }
  ccs::Rng rng(seed);
  c.order = shuffled(c.problems.size(), rng);
  return c;
}

ServeCorpus serve_mixed_corpus(std::uint64_t seed, std::size_t line_count) {
  const char* machines[] = {"mesh 2 2", "ring 4", "linear_array 4"};
  ccs::Rng rng(seed);
  ServeCorpus c;
  std::vector<ccs::Csdfg> graphs;  // parallel to c.problems
  c.lines.reserve(line_count);
  // Mix shares (per mille): cold 520, portfolio 80, replay 200, relabel
  // 120, malformed 30, expired 30, oversized 20.  No recorded serve traffic
  // exists to draw them from, so they are provisional: picked so every path
  // gets dozens of lines or more in one run.  The counts are exact and only
  // their order is drawn, so every seed asks for the same amount of work.
  const std::pair<LineKind, std::size_t> shares[] = {
      {LineKind::kPortfolio, 80}, {LineKind::kReplay, 200},
      {LineKind::kRelabel, 120},  {LineKind::kMalformed, 30},
      {LineKind::kExpired, 30},   {LineKind::kOversized, 20}};
  std::vector<LineKind> kinds(line_count, LineKind::kCold);
  std::size_t next = 0;
  for (const auto& [kind, per_mille] : shares)
    for (std::size_t j = 0; j < line_count * per_mille / 1000; ++j)
      kinds[next++] = kind;
  std::shuffle(kinds.begin(), kinds.end(), rng.engine());
  // A resubmission needs an earlier graph: open with a cold line.
  std::swap(kinds.front(),
            *std::find(kinds.begin(), kinds.end(), LineKind::kCold));
  for (std::size_t i = 0; i < line_count; ++i) {
    ServeLine line;
    line.id = "r" + std::to_string(i);
    const LineKind kind = kinds[i];
    line.kind = kind;
    switch (kind) {
      case LineKind::kCold:
      case LineKind::kPortfolio: {
        const ccs::Csdfg g = random_graph(rng.uniform_size(8, 14), rng);
        Problem p{"class" + std::to_string(c.problems.size()),
                  ccs::serialize_csdfg(g), machines[rng.uniform_int(0, 2)],
                  kind == LineKind::kPortfolio ? ccs::SolveMode::kPortfolio
                                               : ccs::SolveMode::kSchedule,
                  2};
        line.problem = static_cast<int>(c.problems.size());
        line.graph_text = p.graph_text;
        line.text = solve_line(line.id, p.graph_text, p, 0, false);
        c.problems.push_back(std::move(p));
        graphs.push_back(g);
        break;
      }
      case LineKind::kReplay:
      case LineKind::kRelabel: {
        const std::size_t k = rng.uniform_size(0, c.problems.size() - 1);
        line.problem = static_cast<int>(k);
        line.graph_text =
            kind == LineKind::kReplay
                ? c.problems[k].graph_text
                : ccs::serialize_csdfg(relabel(graphs[k], rng, i));
        line.text =
            solve_line(line.id, line.graph_text, c.problems[k], 0, false);
        break;
      }
      case LineKind::kMalformed:
        line.text = R"({"op":"solve","id":")" + line.id +
                    R"(","graph":"graph g\nnode a 2\nnode b)";
        break;
      case LineKind::kExpired: {
        const Problem p{"expired", "graph g\nnode a 1\n", machines[0],
                        ccs::SolveMode::kSchedule, 1};
        line.text = solve_line(line.id, p.graph_text, p,
                               -rng.uniform_int(0, 5), true);
        break;
      }
      case LineKind::kOversized:
        line.text = R"({"op":"solve","id":")" + line.id + R"(","pad":")" +
                    std::string(kServeMaxLineBytes + 64, 'x') + R"("})";
        break;
    }
    c.lines.push_back(std::move(line));
  }
  return c;
}

ccs::SolveRequest make_request(const Problem& p, const ccs::Csdfg& graph) {
  ccs::SolveRequest q;
  q.graph = graph;
  q.arch = p.arch;
  q.mode = p.mode;
  q.certify = true;
  if (p.mode == ccs::SolveMode::kPortfolio) {
    q.portfolio.jobs = p.jobs;
    q.portfolio.certify_winner = true;
  }
  return q;
}

}  // namespace perfbench

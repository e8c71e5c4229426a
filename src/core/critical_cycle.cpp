#include "core/critical_cycle.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <vector>

#include "util/contracts.hpp"

namespace ccs {
namespace {

__extension__ typedef __int128 Wide;

}  // namespace

Rational CycleWitness::ratio() const {
  if (total_delay == 0) return Rational{0, 1};
  const long long g = std::gcd(total_time, total_delay);
  return Rational{total_time / g, total_delay / g};
}

CycleWitness critical_cycle(const Csdfg& g) {
  const Rational bound = iteration_bound(g);
  if (bound.num == 0) return {};  // acyclic

  const long long p = bound.num, q = bound.den;
  const std::size_t n = g.node_count();
  // 128-bit: with times and delays near 2^31, q*t and p*d reach 2^63.
  auto weight = [&](EdgeId eid) {
    const Edge& e = g.edge(eid);
    return Wide{q} * g.node(e.from).time - Wide{p} * e.delay;
  };

  // Longest paths from a virtual source; converges because no cycle is
  // positive at ratio B.
  std::vector<Wide> dist(n, 0);
  for (std::size_t pass = 0; pass < n; ++pass) {
    bool changed = false;
    for (EdgeId eid = 0; eid < g.edge_count(); ++eid) {
      const Edge& e = g.edge(eid);
      if (dist[e.from] + weight(eid) > dist[e.to]) {
        dist[e.to] = dist[e.from] + weight(eid);
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Tight subgraph: every critical cycle's edges satisfy
  // dist[to] == dist[from] + w, and every cycle of tight edges is critical.
  std::vector<std::vector<EdgeId>> tight(n);
  for (EdgeId eid = 0; eid < g.edge_count(); ++eid) {
    const Edge& e = g.edge(eid);
    if (dist[e.from] + weight(eid) == dist[e.to])
      tight[e.from].push_back(eid);
  }

  // Iterative DFS for a cycle in the tight subgraph.
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(n, Color::kWhite);
  std::vector<EdgeId> via(n, 0);      // tight edge used to enter the node
  std::vector<NodeId> parent(n, 0);   // DFS tree parent

  for (NodeId root = 0; root < n; ++root) {
    if (color[root] != Color::kWhite) continue;
    // (node, next edge index) stack.
    std::vector<std::pair<NodeId, std::size_t>> stack{{root, 0}};
    color[root] = Color::kGray;
    while (!stack.empty()) {
      auto& [u, idx] = stack.back();
      if (idx < tight[u].size()) {
        const EdgeId eid = tight[u][idx++];
        const NodeId w = g.edge(eid).to;
        if (color[w] == Color::kGray) {
          // Found a cycle: unwind from u back to w.
          CycleWitness cycle;
          std::vector<EdgeId> rev{eid};
          NodeId cur = u;
          while (cur != w) {
            rev.push_back(via[cur]);
            cur = parent[cur];
          }
          std::reverse(rev.begin(), rev.end());
          cycle.edges = rev;
          for (EdgeId ce : cycle.edges) {
            cycle.total_time += g.node(g.edge(ce).from).time;
            cycle.total_delay += g.edge(ce).delay;
          }
          CCS_ENSURES(cycle.ratio() == bound);
          return cycle;
        }
        if (color[w] == Color::kWhite) {
          color[w] = Color::kGray;
          via[w] = eid;
          parent[w] = u;
          stack.push_back({w, 0});
        }
      } else {
        color[u] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  CCS_ASSERT(false);  // a cyclic graph always has a tight cycle
  return {};
}

std::string describe_cycle(const Csdfg& g, const CycleWitness& cycle) {
  if (cycle.edges.empty()) return "(acyclic)";
  std::ostringstream os;
  for (const EdgeId eid : cycle.edges)
    os << g.node(g.edge(eid).from).name << " -> ";
  os << g.node(g.edge(cycle.edges.front()).from).name;
  os << " (t=" << cycle.total_time << ", d=" << cycle.total_delay
     << ", ratio " << cycle.ratio().to_string() << ")";
  return os.str();
}

}  // namespace ccs

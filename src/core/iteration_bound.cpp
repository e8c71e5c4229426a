#include "core/iteration_bound.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <vector>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ccs {
namespace {

__extension__ typedef __int128 Wide;

/// One cycle's exact time/delay ratio, reduced, so that equal ratios have
/// equal (p, q) and scaled potentials of equal ratios share one scale.
struct Ratio {
  long long p = 0;
  long long q = 1;
};

bool operator==(const Ratio& a, const Ratio& b) {
  return a.p == b.p && a.q == b.q;
}

/// a > b by cross-multiplication; both sides stay below 2^126.
bool above(const Ratio& a, const Ratio& b) {
  return Wide{a.p} * b.q > Wide{b.p} * a.q;
}

/// Strongly connected components by iterative Tarjan; returns the
/// components that contain a cycle (size >= 2, or a self-loop).
std::vector<std::vector<NodeId>> cyclic_components(const Csdfg& g,
                                                   std::vector<int>& comp) {
  const std::size_t n = g.node_count();
  std::vector<int> index(n, -1), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<NodeId> stack;
  std::vector<std::pair<NodeId, std::size_t>> calls;
  std::vector<std::vector<NodeId>> out;
  comp.assign(n, -1);
  int next_index = 0, next_comp = 0;
  for (NodeId root = 0; root < n; ++root) {
    if (index[root] >= 0) continue;
    calls.push_back({root, 0});
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!calls.empty()) {
      auto& [u, pos] = calls.back();
      const auto edges = g.out_edges(u);
      if (pos < edges.size()) {
        const NodeId w = g.edge(edges[pos++]).to;
        if (index[w] < 0) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          calls.push_back({w, 0});
        } else if (on_stack[w]) {
          low[u] = std::min(low[u], index[w]);
        }
        continue;
      }
      const NodeId v = u;
      calls.pop_back();
      if (!calls.empty())
        low[calls.back().first] = std::min(low[calls.back().first], low[v]);
      if (low[v] != index[v]) continue;
      std::vector<NodeId> members;
      NodeId w = 0;
      do {
        w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        comp[w] = next_comp;
        members.push_back(w);
      } while (w != v);
      ++next_comp;
      bool cyclic = members.size() >= 2;
      for (const EdgeId e : g.out_edges(v)) cyclic |= g.edge(e).to == v;
      if (cyclic) out.push_back(std::move(members));
    }
  }
  return out;
}

/// Value-determination marks besides the id of the walk that reached a node.
constexpr int kUnvisited = -1;
constexpr int kValued = -2;

/// Policy-iteration state over all nodes, shared by the components.
struct PolicyState {
  explicit PolicyState(std::size_t n)
      : out(n), policy(n, 0), eta(n), x(n, 0), walk(n, kUnvisited) {}

  std::vector<std::vector<EdgeId>> out;  ///< In-component out-edges.
  std::vector<EdgeId> policy;
  std::vector<Ratio> eta;
  std::vector<Wide> x;
  std::vector<int> walk;  ///< Walk that reached the node, or a state above.
  std::vector<NodeId> path;
};

/// Howard policy iteration for the maximum cycle ratio of one strongly
/// connected component (Cochet-Terrasson et al. 1998).  A policy picks one
/// in-component out-edge per node, so every node reaches exactly one
/// policy cycle.  Value determination gives each node that cycle's ratio
/// eta and a potential x with x(u) = t(u) - eta·d(e) + x(v) along its
/// policy edge e = (u, v), scaled by eta's denominator to stay integral.
/// Improvement switches a node to the out-edge with the lexicographically
/// largest (eta(v), t(u) - eta(v)·d(e) + x(v)) when that strictly beats
/// its current edge.  A new policy cycle then has a strictly larger ratio
/// than its nodes had, and otherwise no eta falls and some x rises; since
/// x is pinned to 0 at each cycle's smallest node id, no policy repeats
/// and the loop ends.  At the fixed point no cycle beats max eta.
Ratio component_max_ratio(const Csdfg& g, const std::vector<NodeId>& nodes,
                          PolicyState& s) {
  auto& [out, policy, eta, x, walk, path] = s;
  // Start from each node's least-delay edge.
  for (const NodeId u : nodes)
    policy[u] = *std::min_element(
        out[u].begin(), out[u].end(), [&](EdgeId a, EdgeId b) {
          return g.edge(a).delay < g.edge(b).delay;
        });
  const auto cost = [&](EdgeId e, const Ratio& r) {
    const Edge& edge = g.edge(e);
    return Wide{g.node(edge.from).time} * r.q - Wide{r.p} * edge.delay;
  };

  for (;;) {
    // Value determination: follow the policy from each unvalued node until
    // a valued node or a node of this walk (a new cycle) is met, then value
    // the path backwards.
    for (const NodeId u : nodes) walk[u] = kUnvisited;
    int walk_id = 0;
    for (const NodeId start : nodes) {
      if (walk[start] != kUnvisited) continue;
      path.clear();
      NodeId v = start;
      while (walk[v] == kUnvisited) {
        walk[v] = walk_id;
        path.push_back(v);
        v = g.edge(policy[v]).to;
      }
      if (walk[v] == walk_id) {
        // v closes a new policy cycle, the path suffix from v.
        const auto first = std::find(path.begin(), path.end(), v);
        long long sum_t = 0, sum_d = 0;
        for (auto it = first; it != path.end(); ++it) {
          sum_t += g.node(*it).time;
          sum_d += g.edge(policy[*it]).delay;
        }
        CCS_ASSERT(sum_d >= 1);  // legal graphs have no zero-delay cycle
        const long long div = std::gcd(sum_t, sum_d);
        // Pin x = 0 at the cycle's smallest node id and drop it from the
        // path; rotated to the front of the suffix first, so the pass
        // below values the other members backwards from it.
        std::rotate(first, std::min_element(first, path.end()), path.end());
        eta[*first] = Ratio{sum_t / div, sum_d / div};
        x[*first] = 0;
        walk[*first] = kValued;
        path.erase(first);
      }
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        const NodeId to = g.edge(policy[*it]).to;
        eta[*it] = eta[to];
        x[*it] = cost(policy[*it], eta[to]) + x[to];
        walk[*it] = kValued;
      }
      ++walk_id;
    }

    // Policy improvement.
    bool changed = false;
    for (const NodeId u : nodes) {
      Ratio best_eta = eta[u];
      Wide best_x = x[u];
      for (const EdgeId e : out[u]) {
        const NodeId v = g.edge(e).to;
        if (above(eta[v], best_eta)) {
          best_eta = eta[v];
          best_x = cost(e, eta[v]) + x[v];
          policy[u] = e;
          changed = true;
        } else if (eta[v] == best_eta) {
          const Wide candidate = cost(e, eta[v]) + x[v];
          if (candidate > best_x) {
            best_x = candidate;
            policy[u] = e;
            changed = true;
          }
        }
      }
    }
    if (!changed) break;
  }

  Ratio best = eta[nodes.front()];
  for (const NodeId u : nodes)
    if (above(eta[u], best)) best = eta[u];
  return best;
}

}  // namespace

std::string Rational::to_string() const {
  std::ostringstream os;
  os << num;
  if (den != 1) os << '/' << den;
  return os.str();
}

Rational iteration_bound(const Csdfg& g) {
  g.require_legal();
  std::vector<int> comp;
  const std::vector<std::vector<NodeId>> components =
      cyclic_components(g, comp);
  if (components.empty()) return Rational{0, 1};  // acyclic

  PolicyState state(g.node_count());
  for (const std::vector<NodeId>& nodes : components)
    for (const NodeId u : nodes)
      for (const EdgeId e : g.out_edges(u))
        if (comp[g.edge(e).to] == comp[u]) state.out[u].push_back(e);
  Ratio best{0, 1};
  for (const std::vector<NodeId>& nodes : components) {
    const Ratio r = component_max_ratio(g, nodes, state);
    if (above(r, best)) best = r;
  }
  CCS_ENSURES(best.p >= 1 && best.p <= g.total_computation());
  return Rational{best.p, best.q};
}

}  // namespace ccs

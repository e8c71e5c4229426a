#include "referee/exhaustive.hpp"

#include <algorithm>

#include "core/graph_algo.hpp"
#include "core/iteration_bound.hpp"
#include "referee/remap_referee.hpp"
#include "util/contracts.hpp"

namespace ccs {

namespace {

struct BudgetExceeded {};

class Search {
public:
  Search(const Csdfg& g, const CommModel& comm, std::vector<NodeId> order,
         long long budget)
      : g_(&g), comm_(&comm), order_(std::move(order)), budget_(budget) {}

  bool feasible(ScheduleTable& table, int length) {
    length_ = length;
    return place_from(table, 0);
  }

private:
  const Csdfg* g_;
  const CommModel* comm_;
  std::vector<NodeId> order_;
  long long budget_;
  long long visited_ = 0;
  int length_ = 0;

  bool place_from(ScheduleTable& table, std::size_t idx) {
    if (idx == order_.size()) return true;
    const NodeId v = order_[idx];
    for (PeId pe = 0; pe < table.num_pes(); ++pe) {
      const int lo = anticipation(*g_, table, *comm_, v, pe, length_);
      const int hi = latest_start(*g_, table, *comm_, v, pe, length_);
      const int span = table.pipelined_pes() ? 1 : table.time_on(v, pe);
      for (int cb = lo; cb <= hi; ++cb) {
        if (++visited_ > budget_) throw BudgetExceeded{};
        if (!table.is_free(pe, cb, cb + span - 1)) continue;
        table.place(v, pe, cb);
        if (place_from(table, idx + 1)) return true;
        table.remove(v);
      }
    }
    return false;
  }
};

}  // namespace

std::optional<ScheduleTable> optimal_schedule(const Csdfg& g,
                                              const Topology& topo,
                                              const CommModel& comm,
                                              const ExhaustiveOptions& options) {
  g.require_legal();
  CCS_EXPECTS(g.node_count() >= 1);

  // Floors: the heaviest task, the per-processor work bound, and the
  // iteration bound.
  long long floor_len = 1;
  for (NodeId v = 0; v < g.node_count(); ++v)
    floor_len = std::max<long long>(floor_len, g.node(v).time);
  floor_len = std::max<long long>(
      floor_len, (g.total_computation() + static_cast<long long>(topo.size()) - 1) /
                     static_cast<long long>(topo.size()));
  const Rational bound = iteration_bound(g);
  floor_len =
      std::max<long long>(floor_len, (bound.num + bound.den - 1) / bound.den);
  // Self-loops: k*L >= t(v) + M'(=0 same PE) requires L >= ceil(t/k).
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    if (ed.from == ed.to)
      floor_len = std::max<long long>(
          floor_len, (g.node(ed.from).time + ed.delay - 1) / ed.delay);
  }

  long long cap = options.max_length;
  if (cap <= 0) {
    // A serial schedule on one PE always exists; its padded length bounds
    // the optimum.
    cap = g.total_computation();
    for (EdgeId e = 0; e < g.edge_count(); ++e)
      if (g.edge(e).delay >= 1)
        cap = std::max<long long>(
            cap, (g.total_computation() + g.edge(e).delay - 1) /
                     g.edge(e).delay);
  }

  const auto order = zero_delay_topological_order(g);
  for (long long L = floor_len; L <= cap; ++L) {
    ScheduleTable table(g, topo.size());
    table.set_length(static_cast<int>(L));
    Search search(g, comm, order, options.max_search_nodes);
    try {
      if (search.feasible(table, static_cast<int>(L))) {
        table.set_length(static_cast<int>(L));
        return table;
      }
    } catch (const BudgetExceeded&) {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace ccs

#include "referee/rotation.hpp"

#include "util/contracts.hpp"

namespace ccs {

std::vector<NodeId> rotate_first_row(Csdfg& g, ScheduleTable& table,
                                     Retiming* accumulated) {
  CCS_EXPECTS(table.complete());
  CCS_EXPECTS(table.length() >= 1);
  CCS_EXPECTS(table.node_count() == g.node_count());

  const std::vector<NodeId> rotated = table.nodes_starting_at(1);

  Retiming r(g.node_count());
  for (NodeId v : rotated) r.add(v, 1);
  r.apply(g);  // throws (graph unchanged) if illegal — table also untouched

  for (NodeId v : rotated) table.remove(v);
  table.shift_up();

  if (accumulated) *accumulated = *accumulated + r;
  return rotated;
}

}  // namespace ccs

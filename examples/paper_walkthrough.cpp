// ccsched — a narrated replay of the paper's running example (Sections 1-4).
//
// Follows Figures 1-4 of "Architecture-Dependent Loop Scheduling via
// Communication-Sensitive Remapping" step by step: the 6-task CSDFG of
// Figure 1(b) on the 2x2 mesh of Figure 1(a), the start-up schedule of
// Figure 2(a), and one manually-narrated rotate-remap pass before letting
// the driver finish the compaction.
//
// Build & run:   ./examples/paper_walkthrough
#include <algorithm>
#include <iostream>

#include "ccsched.hpp"
#include "workloads/library.hpp"

int main() {
  using namespace ccs;

  const Csdfg g = paper_example6();
  const Topology mesh = make_mesh(2, 2);
  const StoreAndForwardModel comm(mesh);

  std::cout << "The CSDFG of Figure 1(b), as Graphviz DOT:\n"
            << to_dot(g) << '\n';

  // --- Section 3: start-up scheduling -------------------------------------
  const ScheduleTable table = start_up_schedule(g, mesh, comm);
  std::cout << "Start-up schedule (Figure 2(a)); note C lands on pe2 at step "
               "3 because the A->C transfer costs one hop:\n"
            << render_schedule(g, table) << '\n';

  // --- Section 4: one rotate-remap pass, narrated --------------------------
  RemapEngine engine(g, comm);
  engine.bind(table);
  const int previous_length = engine.length();
  const auto rotated = engine.rotate();
  const Csdfg& retimed = engine.graph();
  const ScheduleTable shifted = engine.table();
  std::cout << "Rotation extracts the first row {";
  for (std::size_t i = 0; i < rotated.size(); ++i)
    std::cout << (i ? "," : "") << retimed.node(rotated[i]).name;
  std::cout << "} and retimes it: one delay drains from each incoming edge "
               "and lands on each outgoing edge (Figure 1(c)).\n";
  std::cout << "Shifted table (renumbered control steps):\n"
            << render_schedule(retimed, shifted) << '\n';

  // Lemma 4.2: AN(v, pe) = max(1, max over placed producers u of
  // CE(u) + M(PE(u), pe) + 1 - k * L).
  const auto anticipation = [&](NodeId v, PeId pe, int target) {
    long long earliest = 1;
    for (const EdgeId eid : retimed.in_edges(v)) {
      const Edge& e = retimed.edge(eid);
      if (e.from == v || !shifted.is_placed(e.from)) continue;
      earliest = std::max<long long>(
          earliest, shifted.ce(e.from) +
                        comm.cost(shifted.pe(e.from), pe, e.volume) + 1 -
                        static_cast<long long>(e.delay) * target);
    }
    return earliest;
  };
  for (const NodeId v : rotated) {
    std::cout << "Anticipation function for " << retimed.node(v).name
              << " at target length " << previous_length - 1 << ":";
    for (PeId pe = 0; pe < mesh.size(); ++pe)
      std::cout << "  pe" << pe + 1 << "->"
                << anticipation(v, pe, previous_length - 1);
    std::cout << '\n';
  }

  const auto remapped =
      engine.remap(rotated, previous_length, RemapPolicy::kWithoutRelaxation,
                   RemapSelection::kBidirectional);
  if (!remapped) {
    std::cerr << "remap unexpectedly failed\n";
    return 1;
  }
  std::cout << "After remapping (pass 1, length " << *remapped << "):\n"
            << render_schedule(engine.graph(), engine.table()) << '\n';

  // --- Let the driver finish ----------------------------------------------
  CycloCompactionOptions opt;
  opt.policy = RemapPolicy::kWithoutRelaxation;
  const auto res = cyclo_compact(paper_example6(), mesh, comm, opt);
  std::cout << "Full driver, without relaxation (paper reaches 5):\n"
            << render_schedule(res.retimed_graph, res.best);
  std::cout << "length trace:";
  for (int l : res.length_trace) std::cout << ' ' << l;
  std::cout << "\nfinal length " << res.best_length() << " vs start-up "
            << res.startup_length() << '\n';

  const auto report = validate_schedule(res.retimed_graph, res.best, comm);
  return report.ok() ? 0 : 1;
}

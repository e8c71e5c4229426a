// Calibration experiment (DESIGN.md A-series extension): how far from
// optimal is cyclo-compaction?
//
// The paper reports improvements over start-up schedules but has no ground
// truth.  The exhaustive branch-and-bound scheduler (tests/referee/)
// provides it for micro instances: per random seed, compare the start-up
// length, the compacted length, and the true optimum of the final retimed
// graph's placement problem.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hpp"
#include "referee/exhaustive.hpp"
#include "util/text_table.hpp"
#include "workloads/generator.hpp"
#include "workloads/library.hpp"

namespace {

using namespace ccs;

void print_gaps() {
  const Topology mesh = make_mesh(2, 2);
  const StoreAndForwardModel comm(mesh);

  bench::banner("optimality gap on micro workloads, mesh(2x2)");
  TextTable t;
  t.set_header(
      {"workload", "startup", "compacted", "optimal placement", "gap"});

  RandomDfgConfig cfg;
  cfg.num_nodes = 6;
  cfg.num_layers = 3;
  cfg.num_back_edges = 2;
  cfg.max_time = 2;
  cfg.max_volume = 2;

  struct Item {
    std::string label;
    Csdfg graph;
  };
  std::vector<Item> items{{"paper6", paper_example6()}};
  for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull, 66ull})
    items.push_back({"rand" + std::to_string(seed), random_csdfg(cfg, seed)});

  int total_gap = 0, solved = 0;
  for (const Item& item : items) {
    const auto res =
        bench::run_checked(item.graph, mesh, RemapPolicy::kWithRelaxation);
    const auto opt = optimal_schedule(res.retimed_graph, mesh, comm);
    std::string opt_text = "budget out";
    std::string gap_text = "-";
    if (opt) {
      opt_text = std::to_string(opt->length());
      gap_text = std::to_string(res.best_length() - opt->length());
      total_gap += res.best_length() - opt->length();
      ++solved;
    }
    t.add_row({item.label, std::to_string(res.startup_length()),
               std::to_string(res.best_length()), opt_text, gap_text});
  }
  std::cout << t.to_string();
  std::cout << "total gap over " << solved << " solved instances: "
            << total_gap
            << " control steps (0 = the heuristic placed optimally for its "
               "final retiming)\n";
}

void BM_ExhaustiveMicro(benchmark::State& state) {
  RandomDfgConfig cfg;
  cfg.num_nodes = 6;
  cfg.num_layers = 3;
  cfg.num_back_edges = 2;
  cfg.max_time = 2;
  cfg.max_volume = 2;
  const Csdfg g = random_csdfg(cfg, 11);
  const Topology mesh = make_mesh(2, 2);
  const StoreAndForwardModel comm(mesh);
  for (auto _ : state)
    benchmark::DoNotOptimize(optimal_schedule(g, mesh, comm));
}
BENCHMARK(BM_ExhaustiveMicro)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_gaps();
  return ccs::bench::run_benchmarks(argc, argv);
}

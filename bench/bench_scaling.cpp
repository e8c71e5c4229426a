// Experiment A4 (DESIGN.md §4): algorithmic scaling.
//
// Wall-clock of the start-up scheduler and the full cyclo-compaction loop as
// the task graph and the machine grow.  The paper claims "fast convergence";
// this bench quantifies it: compaction is a few milliseconds for
// paper-sized inputs and stays polynomial as |V| and P scale.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/iteration_bound.hpp"
#include "core/list_scheduler.hpp"
#include "core/retiming.hpp"
#include "engine/portfolio.hpp"
#include "workloads/generator.hpp"
#include "workloads/library.hpp"

namespace {

using namespace ccs;

Csdfg graph_of_size(std::size_t nodes) {
  RandomDfgConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_layers = std::max<std::size_t>(3, nodes / 6);
  cfg.num_back_edges = std::max<std::size_t>(2, nodes / 8);
  cfg.max_time = 3;
  cfg.max_volume = 3;
  return random_csdfg(cfg, /*seed=*/4242);
}

void BM_StartupVsNodes(benchmark::State& state) {
  const Csdfg g = graph_of_size(static_cast<std::size_t>(state.range(0)));
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  for (auto _ : state)
    benchmark::DoNotOptimize(start_up_schedule(g, topo, comm));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StartupVsNodes)
    ->RangeMultiplier(2)
    ->Range(16, 128)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();

void BM_CompactionVsNodes(benchmark::State& state) {
  const Csdfg g = graph_of_size(static_cast<std::size_t>(state.range(0)));
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  CycloCompactionOptions opt;
  opt.policy = RemapPolicy::kWithRelaxation;
  for (auto _ : state)
    benchmark::DoNotOptimize(cyclo_compact(g, topo, comm, opt));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CompactionVsNodes)
    ->RangeMultiplier(2)
    ->Range(16, 128)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_CompactionVsPes(benchmark::State& state) {
  const Csdfg g = graph_of_size(32);
  const Topology topo =
      make_mesh(static_cast<std::size_t>(state.range(0)), 2);
  const StoreAndForwardModel comm(topo);
  CycloCompactionOptions opt;
  opt.policy = RemapPolicy::kWithRelaxation;
  for (auto _ : state)
    benchmark::DoNotOptimize(cyclo_compact(g, topo, comm, opt));
  state.SetLabel(topo.name());
}
BENCHMARK(BM_CompactionVsPes)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_MinPeriodRetiming(benchmark::State& state) {
  const Csdfg g = graph_of_size(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(min_period_retiming(g));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinPeriodRetiming)
    ->RangeMultiplier(2)
    ->Range(16, 64)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_IterationBound(benchmark::State& state) {
  const Csdfg g = graph_of_size(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(iteration_bound(g));
}
BENCHMARK(BM_IterationBound)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Unit(benchmark::kMillisecond);

/// The graph the certifier re-bounds on paper traffic: retiming raises
/// paper19's total delay from 15 to over 100 on the winner.
void BM_IterationBoundPaper19Retimed(benchmark::State& state) {
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  const Csdfg g =
      portfolio_compact(paper_example19(), topo, comm).winner.retimed_graph;
  state.SetLabel("total delay " + std::to_string(g.total_delay()));
  for (auto _ : state) benchmark::DoNotOptimize(iteration_bound(g));
}
BENCHMARK(BM_IterationBoundPaper19Retimed)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return ccs::bench::run_benchmarks(argc, argv);
}

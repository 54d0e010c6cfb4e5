// Microbenchmark: equation building (the rank-guided candidate stream) and
// full inference on a mid-size scenario, plus the harvest on the
// registry's heaviest entry (waxman-dense-vps, 1560 paths). The
// structural wins (sparse rank tracking, seen-set-free candidate
// generation, lazy dense system) show up in its absolute time (~20 ms vs
// ~300 ms for the earlier implementation on the same instance).
#include <benchmark/benchmark.h>

#include "core/correlation_algorithm.hpp"
#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace tomo;

struct Prepared {
  core::ScenarioInstance inst;
  graph::CoverageIndex coverage;
  sim::SimulationResult sim_result;

  explicit Prepared(core::ScenarioInstance instance)
      : inst(std::move(instance)),
        coverage(inst.graph, inst.paths),
        sim_result(sim::simulate(inst.graph, inst.paths, *inst.truth,
                                 make_sim_config())) {}

  static sim::SimulatorConfig make_sim_config() {
    sim::SimulatorConfig config;
    config.snapshots = 1000;
    config.mode = sim::PacketMode::kExact;
    config.seed = 7;
    return config;
  }
};

Prepared& prepared() {
  static Prepared p = [] {
    core::ScenarioConfig config;
    config.topology = core::TopologyKind::kBrite;
    config.as_nodes = 60;
    config.as_endpoints = 16;
    config.congested_fraction = 0.10;
    config.seed = 21;
    return Prepared(core::build_scenario(config));
  }();
  return p;
}

void BM_BuildEquations(benchmark::State& state) {
  Prepared& p = prepared();
  const sim::EmpiricalMeasurement meas(p.sim_result.measurement);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_equations(p.coverage, p.inst.declared_sets, meas));
  }
}
BENCHMARK(BM_BuildEquations);

void BM_FullInference(benchmark::State& state) {
  Prepared& p = prepared();
  const sim::EmpiricalMeasurement meas(p.sim_result.measurement);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::infer_congestion(
        p.inst.graph, p.inst.paths, p.coverage, p.inst.declared_sets, meas));
  }
}
BENCHMARK(BM_FullInference);

Prepared& prepared_dense_vps() {
  static Prepared p = [] {
    core::ScenarioConfig config =
        core::ScenarioCatalog::instance().at("waxman-dense-vps").config;
    config.seed = 42;
    return Prepared(core::build_scenario(config));
  }();
  return p;
}

void BM_HarvestDenseVps(benchmark::State& state) {
  Prepared& p = prepared_dense_vps();
  const sim::EmpiricalMeasurement meas(p.sim_result.measurement);
  const auto singles =
      corr::CorrelationSets::singletons(p.coverage.link_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_equations(p.coverage, p.inst.declared_sets, meas));
    benchmark::DoNotOptimize(
        core::build_equations(p.coverage, singles, meas));
  }
}
BENCHMARK(BM_HarvestDenseVps)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

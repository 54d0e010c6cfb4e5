// Microbenchmarks for the linear-algebra substrate.
#include <benchmark/benchmark.h>

#include <map>

#include "core/equations.hpp"
#include "core/scenario_catalog.hpp"
#include "graph/coverage.hpp"
#include "linalg/nnls.hpp"
#include "linalg/qr.hpp"
#include "linalg/rank_tracker.hpp"
#include "linalg/simplex.hpp"
#include "linalg/solvers.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace tomo;
using namespace tomo::linalg;

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      a(i, j) = rng.uniform(-1, 1);
    }
  }
  return a;
}

void BM_QrLeastSquares(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = random_matrix(n + 10, n, rng);
  Vector b(n + 10);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(least_squares(a, b));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QrLeastSquares)->Arg(32)->Arg(64)->Arg(128)->Complexity();

void BM_Nnls(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Matrix a = random_matrix(n + 10, n, rng);
  Vector b(n + 10);
  for (auto& v : b) v = rng.uniform(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nnls(a, b));
  }
}
BENCHMARK(BM_Nnls)->Arg(16)->Arg(32)->Arg(64);

void BM_RankTrackerSparseRows(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  // Pre-generate sparse candidate rows resembling path-incidence vectors.
  std::vector<std::vector<std::size_t>> rows;
  for (std::size_t i = 0; i < dim * 2; ++i) {
    std::vector<std::size_t> ones =
        rng.sample_without_replacement(dim, 8 + rng.below(8));
    rows.push_back(std::move(ones));
  }
  for (auto _ : state) {
    RankTracker tracker(dim);
    std::size_t accepted = 0;
    for (const auto& ones : rows) {
      accepted += tracker.try_add_ones(ones) ? 1 : 0;
      if (tracker.full_rank()) break;
    }
    benchmark::DoNotOptimize(accepted);
  }
}
BENCHMARK(BM_RankTrackerSparseRows)->Arg(64)->Arg(128)->Arg(256);

// ---- NNLS on real registry equation systems -----------------------------
//
// The solve is the inference hot path at mesh scale, so it is timed on
// harvested systems, not synthetic dense ones:
//   arg 0 — waxman-bursty at test (shrink) scale, ~260 links
//   arg 1 — waxman-full at test scale, ~250 links / ~230 paths
//   arg 2 — waxman-full at full registry scale (~870 paths, ~870 links)

const core::EquationSystem& registry_system(std::int64_t scale) {
  static std::map<std::int64_t, core::EquationSystem> cache;
  const auto it = cache.find(scale);
  if (it != cache.end()) return it->second;

  core::ScenarioConfig config =
      core::ScenarioCatalog::instance()
          .at(scale == 0 ? "waxman-bursty" : "waxman-full")
          .config;
  if (scale < 2) config = core::shrink_for_tests(config);
  config.seed = 0xbe7c;
  const core::ScenarioInstance inst = core::build_scenario(config);
  const graph::CoverageIndex coverage(inst.graph, inst.paths);
  sim::SimulatorConfig sc;
  sc.snapshots = scale < 2 ? 400 : 2000;
  sc.packets_per_path = scale < 2 ? 600 : 4000;
  sc.mode = sim::PacketMode::kBinomial;
  sc.seed = 0xbe7c00;
  auto simr = sim::simulate(inst.graph, inst.paths, *inst.truth, sc);
  const sim::EmpiricalMeasurement meas(std::move(simr.measurement));
  return cache
      .emplace(scale,
               core::build_equations(coverage, inst.declared_sets, meas))
      .first->second;
}

void BM_NnlsRegistryIncremental(benchmark::State& state) {
  const core::EquationSystem& system = registry_system(state.range(0));
  SolverOptions options;  // defaults: nnls
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_log_system(core::sparse_view(system), options));
  }
}
BENCHMARK(BM_NnlsRegistryIncremental)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_L1Regression(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const Matrix a = random_matrix(n + 5, n, rng);
  Vector b(n + 5);
  for (auto& v : b) v = rng.uniform(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(l1_regression(a, b));
  }
}
BENCHMARK(BM_L1Regression)->Arg(16)->Arg(32);

}  // namespace

BENCHMARK_MAIN();

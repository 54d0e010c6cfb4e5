// Differential suite for the batched bootstrap engine.
//
// The batched engine (core::bootstrap_congestion) is pinned against the
// serial oracle oracles::bootstrap_reference, which shares only the
// per-replicate seed streams: with warm starts off, intervals are bitwise
// identical at matched seeds on every registry scenario, for any `jobs`,
// and on the fallback path (the reference computation verbatim). The
// word-level MeasurementBlock::resample gather is pinned the same way
// against the per-bit oracles::resample_snapshots, and percentile_pair
// against two separate percentile calls. Any divergence is an exactness
// bug, not a tolerance question, so the comparisons are exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/bootstrap.hpp"
#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "graph/coverage.hpp"
#include "oracles/oracles.hpp"
#include "sim/measurement.hpp"
#include "sim/measurement_block.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace tomo::core {
namespace {

using tomo::testing::figure_1a;

void expect_identical(const BootstrapResult& a, const BootstrapResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.point, b.point) << what;
  EXPECT_EQ(a.lower, b.lower) << what;
  EXPECT_EQ(a.upper, b.upper) << what;
  EXPECT_EQ(a.replicates, b.replicates) << what;
  EXPECT_EQ(a.skipped, b.skipped) << what;
}

struct Workload {
  core::ScenarioInstance inst;
  sim::SimulationResult simr;
};

Workload registry_workload(const std::string& name) {
  core::ScenarioConfig config = core::shrink_for_tests(
      core::ScenarioCatalog::instance().at(name).config);
  config.seed = 0xb001;
  Workload w{core::build_scenario(config), {}};
  sim::SimulatorConfig sc;
  sc.snapshots = 150;  // two full 64-snapshot words plus a ragged tail
  sc.packets_per_path = 400;
  sc.mode = sim::PacketMode::kBatched;
  sc.seed = 0x51ee;
  w.simr = sim::simulate(w.inst.graph, w.inst.paths, *w.inst.truth, sc);
  return w;
}

class RegistryBootstrapDifferential
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryBootstrapDifferential, BatchedMatchesReferenceBitwise) {
  const Workload w = registry_workload(GetParam());
  const graph::CoverageIndex cov(w.inst.graph, w.inst.paths);

  BootstrapOptions options;
  options.replicates = 10;
  options.seed = 0xb00;
  options.jobs = 1;
  // Warm starts reach the same optimum along a different active-set path;
  // off, the fast path is the reference arithmetic bit for bit.
  options.warm_start = false;

  const BootstrapResult reference = oracles::bootstrap_reference(
      w.inst.graph, w.inst.paths, cov, w.inst.declared_sets,
      w.simr.measurement, options);
  const BootstrapResult batched =
      bootstrap_congestion(w.inst.graph, w.inst.paths, cov,
                           w.inst.declared_sets, w.simr.measurement, options);
  expect_identical(batched, reference, GetParam());
}

TEST_P(RegistryBootstrapDifferential, JobsDoNotChangeIntervals) {
  const Workload w = registry_workload(GetParam());
  const graph::CoverageIndex cov(w.inst.graph, w.inst.paths);

  BootstrapOptions options;  // warm starts on: the default
  options.replicates = 12;
  options.seed = 0xfa2;
  options.jobs = 1;
  const BootstrapResult serial =
      bootstrap_congestion(w.inst.graph, w.inst.paths, cov,
                           w.inst.declared_sets, w.simr.measurement, options);
  options.jobs = 3;
  const BootstrapResult threaded =
      bootstrap_congestion(w.inst.graph, w.inst.paths, cov,
                           w.inst.declared_sets, w.simr.measurement, options);
  expect_identical(threaded, serial, GetParam() + " jobs=3");
  EXPECT_EQ(threaded.reharvested, serial.reharvested) << GetParam();
}

std::vector<std::string> registry_names() {
  return core::ScenarioCatalog::instance().names();
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistryBootstrapDifferential,
    ::testing::ValuesIn(registry_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ------------------------------------------------- fallback & skipping ----

// min_good_snapshots > 1 voids the support-stability certificate (a
// dropped candidate could cross the threshold), so the static gate must
// route every replicate through the full re-harvest — which is the
// reference computation verbatim.
TEST(BootstrapFast, UnprovableSupportFallsBackToReferencePath) {
  // worm-mislabeled: secretly correlated links, so the refine/demote
  // chain actually fires before the harvest this configuration re-runs.
  const Workload w = registry_workload("worm-mislabeled");
  const graph::CoverageIndex cov(w.inst.graph, w.inst.paths);

  BootstrapOptions options;
  options.replicates = 8;
  options.seed = 0x5a11;
  options.warm_start = false;
  options.inference.equations.min_good_snapshots = 2;

  const BootstrapResult reference = oracles::bootstrap_reference(
      w.inst.graph, w.inst.paths, cov, w.inst.declared_sets,
      w.simr.measurement, options);
  const BootstrapResult batched =
      bootstrap_congestion(w.inst.graph, w.inst.paths, cov,
                           w.inst.declared_sets, w.simr.measurement, options);
  EXPECT_EQ(batched.reharvested, options.replicates);
  EXPECT_EQ(reference.reharvested, 0u);  // reference never reports it
  expect_identical(batched, reference, "min_good_snapshots=2");
}

// A path with a single good snapshot flips its equations' usability in
// exactly the replicates whose resample drops that snapshot: those must
// take the fallback, the others the fast path, and both must agree with
// the reference engine bit for bit.
TEST(BootstrapFast, SupportChangeTriggersPerReplicateFallback) {
  auto sys = figure_1a();
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const std::size_t n = 32;
  sim::MeasurementBlock obs = sim::MeasurementBlock::all_good(3, n);
  // Paths 1 and 2 good everywhere; path 0 good only in snapshot 0.
  for (std::size_t s = 1; s < n; ++s) obs.set_congested(0, s);
  obs.recount();

  BootstrapOptions options;
  options.replicates = 24;
  options.seed = 0xfb;
  options.warm_start = false;
  const BootstrapResult batched = bootstrap_congestion(
      sys.graph, sys.paths, cov, sys.sets, obs, options);
  // P(a 32-draw resample keeps snapshot 0) ~ 0.63: both branches must be
  // exercised. Deterministic given the fixed seed.
  EXPECT_GT(batched.reharvested, 0u);
  EXPECT_LT(batched.reharvested, options.replicates);

  const BootstrapResult reference = oracles::bootstrap_reference(
      sys.graph, sys.paths, cov, sys.sets, obs, options);
  expect_identical(batched, reference, "single-good-snapshot path");
}

// Replicates whose resample loses every usable equation are dropped, not
// silently folded in: both engines account for every requested replicate
// and agree on which were lost.
TEST(BootstrapFast, SkippedReplicatesAreAccountedFor) {
  auto sys = figure_1a();
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const std::size_t n = 16;
  sim::MeasurementBlock obs = sim::MeasurementBlock::all_good(3, n);
  // Every path good only in snapshot 0: a resample that misses it has no
  // usable equation at all and the replicate must be skipped.
  for (sim::PathId p = 0; p < 3; ++p) {
    for (std::size_t s = 1; s < n; ++s) obs.set_congested(p, s);
  }
  obs.recount();

  BootstrapOptions options;
  options.replicates = 30;
  options.seed = 0x5c1;
  options.warm_start = false;
  const BootstrapResult batched = bootstrap_congestion(
      sys.graph, sys.paths, cov, sys.sets, obs, options);
  EXPECT_GT(batched.skipped, 0u);  // ~36% of resamples miss snapshot 0
  EXPECT_EQ(batched.replicates + batched.skipped, options.replicates);

  const BootstrapResult reference = oracles::bootstrap_reference(
      sys.graph, sys.paths, cov, sys.sets, obs, options);
  EXPECT_EQ(reference.replicates + reference.skipped, options.replicates);
  expect_identical(batched, reference, "mostly-unusable sample");
}

// ------------------------------------------------- resample & percentiles

// The word-level gather must reproduce the scalar per-bit resample
// exactly, picks for picks — including the zeroed tail past the snapshot
// count and the per-path good counts.
TEST(BootstrapFast, BlockResampleMatchesScalarReference) {
  const std::size_t paths = 5, n = 150;
  sim::MeasurementBlock block = sim::MeasurementBlock::all_good(paths, n);
  Rng fill(0xf111);
  for (sim::PathId p = 0; p < paths; ++p) {
    for (std::size_t s = 0; s < n; ++s) {
      if (fill.below(3) == 0) block.set_congested(p, s);
    }
  }
  block.recount();

  for (std::uint64_t seed : {1ull, 7ull, 0xabcdull}) {
    // Both paths consume the identical pick stream by contract.
    Rng scalar_rng(seed);
    const sim::MeasurementBlock expected =
        oracles::resample_snapshots(block, scalar_rng);
    Rng block_rng(seed);
    std::vector<std::uint32_t> picks;
    draw_picks_into(n, block_rng, picks);
    const sim::MeasurementBlock gathered = block.resample(picks);
    EXPECT_EQ(gathered.good_bits, expected.good_bits) << "seed " << seed;
    EXPECT_EQ(gathered.good_counts, expected.good_counts) << "seed " << seed;
  }
}

TEST(BootstrapFast, PercentilePairMatchesTwoSeparateCalls) {
  Rng rng(0x9e);
  for (const std::size_t size : {1u, 2u, 7u, 40u, 201u}) {
    std::vector<double> values(size);
    for (double& v : values) {
      v = static_cast<double>(rng.below(1000)) / 999.0;
    }
    const Interval pair = percentile_pair(values, 5.0, 95.0);
    EXPECT_EQ(pair.lo, percentile(values, 5.0)) << size;
    EXPECT_EQ(pair.hi, percentile(values, 95.0)) << size;
  }
}

}  // namespace
}  // namespace tomo::core

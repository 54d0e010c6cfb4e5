// Differential suite for the fast equation-harvest paths.
//
// The harvest has three "fast" layers — the EmpiricalMeasurement bitset
// cache, the correlation-set signature precheck, and the batched parallel
// candidate evaluation — each with a scalar/sequential reference: the
// test oracle oracles::ScalarMeasurement, the precheck option turned off,
// and width 1. These tests pin the fast paths against the references:
// identical accepted equations (links, paths, bitwise-equal right-hand
// sides), identical drop counters, and an identical dense matrix, across
// every registry scenario, random seeds, option variations, and --jobs
// values. Any divergence is an exactness bug, not a tolerance question,
// so comparisons are exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/equations.hpp"
#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "graph/coverage.hpp"
#include "oracles/oracles.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tomo::core {
namespace {

struct PreparedScenario {
  ScenarioInstance inst;
  graph::CoverageIndex coverage;
  sim::SimulationResult sim_result;
};

PreparedScenario prepare(ScenarioConfig config, std::uint64_t sim_seed) {
  ScenarioInstance inst = build_scenario(config);
  graph::CoverageIndex coverage(inst.graph, inst.paths);
  sim::SimulatorConfig sc;
  sc.snapshots = 300;
  sc.packets_per_path = 500;
  sc.mode = sim::PacketMode::kBinomial;
  sc.seed = sim_seed;
  sim::SimulationResult sim_result =
      sim::simulate(inst.graph, inst.paths, *inst.truth, sc);
  return PreparedScenario{std::move(inst), std::move(coverage),
                          std::move(sim_result)};
}

void expect_identical(const EquationSystem& a, const EquationSystem& b,
                      const std::string& what) {
  ASSERT_EQ(a.equations.size(), b.equations.size()) << what;
  for (std::size_t i = 0; i < a.equations.size(); ++i) {
    EXPECT_EQ(a.equations[i].links, b.equations[i].links)
        << what << ": equation " << i;
    EXPECT_EQ(a.equations[i].paths, b.equations[i].paths)
        << what << ": equation " << i;
    // Bitwise equality: the fast paths must perform the same arithmetic.
    EXPECT_EQ(a.equations[i].y, b.equations[i].y)
        << what << ": equation " << i;
  }
  EXPECT_EQ(a.link_count, b.link_count) << what;
  EXPECT_EQ(a.n1, b.n1) << what;
  EXPECT_EQ(a.n2, b.n2) << what;
  EXPECT_EQ(a.rank, b.rank) << what;
  EXPECT_EQ(a.dropped_correlated, b.dropped_correlated) << what;
  EXPECT_EQ(a.dropped_unusable, b.dropped_unusable) << what;
  EXPECT_EQ(a.dropped_dependent, b.dropped_dependent) << what;
  EXPECT_EQ(a.pair_candidates_tried, b.pair_candidates_tried) << what;
  // The dense solver inputs must agree cell for cell.
  const linalg::DenseSystem da = linalg::dense_system(sparse_view(a));
  const linalg::DenseSystem db = linalg::dense_system(sparse_view(b));
  ASSERT_EQ(da.a.rows(), db.a.rows()) << what;
  ASSERT_EQ(da.a.cols(), db.a.cols()) << what;
  for (std::size_t r = 0; r < da.a.rows(); ++r) {
    for (std::size_t c = 0; c < da.a.cols(); ++c) {
      ASSERT_EQ(da.a(r, c), db.a(r, c))
          << what << ": cell (" << r << "," << c << ")";
    }
  }
  EXPECT_EQ(da.y, db.y) << what;
}

/// Reference build: scalar measurement oracle, no signature precheck,
/// inline evaluation — the historical sequential implementation's
/// behaviour.
EquationSystem reference_build(const PreparedScenario& p,
                               const corr::CorrelationSets& sets,
                               EquationBuildOptions options) {
  const oracles::ScalarMeasurement scalar(p.sim_result.measurement);
  options.use_signature_precheck = false;
  const util::ScopedWidth width(1);
  return build_equations(p.coverage, sets, scalar, options);
}

class RegistryDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryDifferential, FastPathsMatchReferenceExactly) {
  ScenarioConfig config =
      shrink_for_tests(ScenarioCatalog::instance().at(GetParam()).config);
  config.seed = 0xd1ff;
  const PreparedScenario p = prepare(config, 0xd1ff00);

  const EquationBuildOptions defaults;
  const EquationSystem ref = reference_build(p, p.inst.declared_sets,
                                             defaults);

  const sim::EmpiricalMeasurement fast(p.sim_result.measurement);
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
    EquationBuildOptions options;
    const util::ScopedWidth width(jobs);
    const EquationSystem sys =
        build_equations(p.coverage, p.inst.declared_sets, fast, options);
    expect_identical(sys, ref,
                     GetParam() + " jobs=" + std::to_string(jobs));
  }
}

std::vector<std::string> registry_names() {
  return ScenarioCatalog::instance().names();
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistryDifferential,
    ::testing::ValuesIn(registry_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(EquationsFast, BitsetCacheMatchesScalarCountsEverywhere) {
  ScenarioConfig config;
  config.topology = TopologyKind::kWaxman;
  config.vantage_points = 10;
  config.seed = 21;
  const PreparedScenario p = prepare(config, 7);
  const sim::EmpiricalMeasurement fast(p.sim_result.measurement);
  const oracles::ScalarMeasurement scalar(p.sim_result.measurement);
  const sim::MeasurementBlock& block = p.sim_result.measurement;
  const std::size_t n = block.path_count;
  for (graph::PathId a = 0; a < n; ++a) {
    ASSERT_EQ(fast.good_count(a), scalar.good_count(a)) << "path " << a;
    ASSERT_EQ(fast.good_prob(a), scalar.good_prob(a)) << "path " << a;
    for (graph::PathId b = 0; b < n; ++b) {
      ASSERT_EQ(fast.pair_good_prob(a, b), scalar.pair_good_prob(a, b))
          << "pair " << a << "," << b;
    }
  }
  // The generic set query routes singles/pairs through the cache too.
  ASSERT_EQ(fast.all_good_prob({3}), scalar.all_good_prob({3}));
  ASSERT_EQ(fast.all_good_prob({1, 4}), scalar.all_good_prob({1, 4}));
  ASSERT_EQ(fast.all_good_prob({0, 2, 5}), scalar.all_good_prob({0, 2, 5}));

  // Exact-pattern counts: the engine's word-major loop against the
  // oracle's path-major loop over complemented words.
  ASSERT_EQ(fast.exact_pattern_prob({}), scalar.exact_pattern_prob({}));
  for (graph::PathId a = 0; a < n; ++a) {
    ASSERT_EQ(fast.exact_pattern_prob({a}), scalar.exact_pattern_prob({a}))
        << "path " << a;
  }
  // Observed congested patterns; 300 snapshots leave a ragged final word
  // (snapshots 256..299), which 257 and 299 fall in.
  ASSERT_EQ(block.snapshot_count % 64, 44u);
  std::size_t congested_patterns = 0;
  for (const std::size_t snapshot : {0u, 1u, 100u, 257u, 299u}) {
    graph::PathIdSet pattern;
    for (graph::PathId a = 0; a < n; ++a) {
      if (!block.good(a, snapshot)) pattern.push_back(a);
    }
    congested_patterns += pattern.empty() ? 0 : 1;
    const double prob = fast.exact_pattern_prob(pattern);
    EXPECT_GT(prob, 0.0) << "snapshot " << snapshot << " has its own pattern";
    ASSERT_EQ(prob, scalar.exact_pattern_prob(pattern))
        << "snapshot " << snapshot;
  }
  EXPECT_GT(congested_patterns, 0u) << "no snapshot had a congested path";
}

TEST(EquationsFast, RandomTopologiesSeedsAndOptionVariations) {
  Rng rng(0xfa57);
  for (int round = 0; round < 4; ++round) {
    ScenarioConfig config;
    config.topology =
        round % 2 == 0 ? TopologyKind::kWaxman : TopologyKind::kBarabasiAlbert;
    config.routers = 60 + 20 * round;
    config.vantage_points = 8 + 2 * round;
    config.cluster_size = 3 + round;
    config.seed = rng.below(1u << 30);
    const PreparedScenario p = prepare(config, rng.below(1u << 30));
    const sim::EmpiricalMeasurement fast(p.sim_result.measurement);

    std::vector<EquationBuildOptions> variations(4);
    variations[1].include_redundant = false;
    variations[2].max_pair_candidates = 40;
    variations[3].min_good_snapshots = 5;
    variations[3].max_pair_equations = 25;
    for (std::size_t v = 0; v < variations.size(); ++v) {
      EquationBuildOptions options = variations[v];
      const EquationSystem ref =
          reference_build(p, p.inst.declared_sets, options);
      const util::ScopedWidth width(3);
      const EquationSystem sys =
          build_equations(p.coverage, p.inst.declared_sets, fast, options);
      expect_identical(sys, ref,
                       "round " + std::to_string(round) + " variation " +
                           std::to_string(v));
    }
  }
}

TEST(EquationsFast, SingletonStructureShortCircuitMatchesReference) {
  ScenarioConfig config;
  config.topology = TopologyKind::kWaxman;
  config.vantage_points = 10;
  config.seed = 5;
  const PreparedScenario p = prepare(config, 11);
  const corr::CorrelationSets singles =
      corr::CorrelationSets::singletons(p.coverage.link_count());
  const EquationSystem ref = reference_build(p, singles, {});
  const sim::EmpiricalMeasurement fast(p.sim_result.measurement);
  const EquationSystem sys = build_equations(p.coverage, singles, fast);
  expect_identical(sys, ref, "singleton structure");
  EXPECT_EQ(sys.dropped_correlated, 0u);
}

}  // namespace
}  // namespace tomo::core

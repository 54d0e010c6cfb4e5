// Property-based suites: parameterized sweeps over random instances
// checking invariants that must hold for *every* seed, not just a fixture.
#include <gtest/gtest.h>

#include <cmath>

#include "core/correlation_algorithm.hpp"
#include "core/equations.hpp"
#include "core/theorem_algorithm.hpp"
#include "corr/joint_table.hpp"
#include "corr/model_factory.hpp"
#include "graph/coverage.hpp"
#include "linalg/qr.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "topogen/planetlab_like.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tomo {
namespace {

// Builds a random small measured system + correlated truth from a seed.
struct RandomInstance {
  graph::Graph graph;
  std::vector<graph::Path> paths;
  corr::CorrelationSets sets;
  std::unique_ptr<corr::CongestionModel> truth;
};

RandomInstance make_random_instance(std::uint64_t seed) {
  topogen::PlanetLabParams params;
  params.routers = 40;
  params.vantage_points = 6;
  params.cluster_size = 3;
  params.seed = seed;
  auto topo = topogen::generate_planetlab_like(params);

  RandomInstance inst;
  inst.graph = std::move(topo.graph);
  inst.paths = std::move(topo.paths);
  inst.sets =
      corr::CorrelationSets(inst.graph.link_count(), topo.partition);

  Rng rng(mix_seed(seed, 0xfeed));
  const std::size_t congested_count =
      std::max<std::size_t>(1, inst.graph.link_count() / 8);
  std::vector<graph::LinkId> congested;
  for (std::size_t idx :
       rng.sample_without_replacement(inst.graph.link_count(),
                                      congested_count)) {
    congested.push_back(idx);
  }
  std::sort(congested.begin(), congested.end());
  std::vector<double> marginals(congested.size());
  for (double& m : marginals) m = rng.uniform(0.1, 0.5);
  inst.truth = corr::make_clustered_shock_model(inst.sets, congested,
                                                marginals, 0.7);
  return inst;
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST_P(SeedSweep, EquationsHoldForTrueLogProbabilities) {
  // Property: every equation the builder accepts is *exactly* satisfied by
  // the ground-truth log-probabilities when measurements are exact.
  const RandomInstance inst = make_random_instance(GetParam());
  const graph::CoverageIndex cov(inst.graph, inst.paths);
  const sim::OracleMeasurement oracle(*inst.truth, cov);
  const core::EquationSystem eq =
      core::build_equations(cov, inst.sets, oracle);
  linalg::Vector x_true(inst.graph.link_count());
  for (graph::LinkId e = 0; e < x_true.size(); ++e) {
    x_true[e] = std::log(inst.truth->prob_all_good({e}));
  }
  const linalg::DenseSystem dense =
      linalg::dense_system(core::sparse_view(eq));
  const linalg::Vector lhs = dense.a.multiply(x_true);
  for (std::size_t i = 0; i < dense.y.size(); ++i) {
    ASSERT_NEAR(lhs[i], dense.y[i], 1e-9) << "equation " << i;
  }
}

TEST_P(SeedSweep, AcceptedEquationsAreLinearlyIndependent) {
  const RandomInstance inst = make_random_instance(GetParam());
  const graph::CoverageIndex cov(inst.graph, inst.paths);
  const sim::OracleMeasurement oracle(*inst.truth, cov);
  core::EquationBuildOptions opts;
  opts.include_redundant = false;  // the minimal §4 system
  const core::EquationSystem eq =
      core::build_equations(cov, inst.sets, oracle, opts);
  const linalg::Matrix a = linalg::dense_system(core::sparse_view(eq)).a;
  ASSERT_GT(a.rows(), 0u);
  EXPECT_EQ(linalg::QrDecomposition(a.transposed()).rank(), a.rows());
  EXPECT_EQ(eq.rank, a.rows());
  EXPECT_LE(eq.rank, inst.graph.link_count());
}

TEST_P(SeedSweep, OracleInferenceRecoversIdentifiableMarginals) {
  // Property: with exact measurements and a full-rank system the inferred
  // marginals match truth; with rank deficiency the inferred marginals
  // still stay in [0,1] and match truth on links covered by equations.
  const RandomInstance inst = make_random_instance(GetParam());
  const graph::CoverageIndex cov(inst.graph, inst.paths);
  const sim::OracleMeasurement oracle(*inst.truth, cov);
  const core::InferenceResult r = core::infer_congestion(
      inst.graph, inst.paths, cov, inst.sets, oracle);
  for (double p : r.congestion_prob) {
    ASSERT_GE(p, 0.0);
    ASSERT_LE(p, 1.0);
  }
  if (r.system.full_rank()) {
    for (graph::LinkId e = 0; e < inst.graph.link_count(); ++e) {
      ASSERT_NEAR(r.congestion_prob[e], inst.truth->marginal(e), 1e-5)
          << "link " << e;
    }
  }
}

TEST_P(SeedSweep, ModelStateProbabilitiesFormDistributions) {
  // Property: each correlation set's state probabilities are a valid
  // probability distribution, and tabulating the model preserves all
  // queries (round-trip through JointTableModel).
  const RandomInstance inst = make_random_instance(GetParam());
  bool tabulable = true;
  for (std::size_t s = 0; s < inst.sets.set_count(); ++s) {
    tabulable &= inst.sets.set(s).size() <= 12;
  }
  if (!tabulable) GTEST_SKIP() << "sets too large to tabulate";
  const corr::JointTableModel table =
      corr::JointTableModel::from_model(*inst.truth);
  for (graph::LinkId e = 0; e < inst.graph.link_count(); ++e) {
    ASSERT_NEAR(table.marginal(e), inst.truth->marginal(e), 1e-9);
  }
}

TEST_P(SeedSweep, SimulatedFrequenciesMatchOracle) {
  const RandomInstance inst = make_random_instance(GetParam());
  const graph::CoverageIndex cov(inst.graph, inst.paths);
  const sim::OracleMeasurement oracle(*inst.truth, cov);
  sim::SimulatorConfig config;
  config.snapshots = 4000;
  config.mode = sim::PacketMode::kExact;
  config.seed = mix_seed(GetParam(), 0xabc);
  const auto simr =
      sim::simulate(inst.graph, inst.paths, *inst.truth, config);
  const sim::EmpiricalMeasurement meas(simr.measurement);
  // Single-path good frequencies track the oracle within sampling noise.
  for (graph::PathId p = 0; p < inst.paths.size(); ++p) {
    ASSERT_NEAR(meas.good_prob(p), oracle.good_prob(p), 0.05)
        << "path " << p;
  }
}

TEST_P(SeedSweep, TheoremAlgorithmMatchesOracleOnTinyInstances) {
  // Shrink until the theorem algorithm's guards accept the instance.
  topogen::PlanetLabParams params;
  params.routers = 12;
  params.vantage_points = 4;
  params.cluster_size = 2;
  params.seed = GetParam();
  auto topo = topogen::generate_planetlab_like(params);
  if (topo.graph.link_count() > 16) GTEST_SKIP() << "instance too large";
  corr::CorrelationSets sets(topo.graph.link_count(), topo.partition);

  Rng rng(mix_seed(GetParam(), 0xbeef));
  std::vector<graph::LinkId> congested;
  std::vector<double> marginals;
  for (graph::LinkId e = 0; e < topo.graph.link_count(); ++e) {
    if (rng.bernoulli(0.4)) {
      congested.push_back(e);
      marginals.push_back(rng.uniform(0.1, 0.4));
    }
  }
  if (congested.empty()) {
    congested.push_back(0);
    marginals.push_back(0.2);
  }
  auto truth =
      corr::make_clustered_shock_model(sets, congested, marginals, 0.6);
  const graph::CoverageIndex cov(topo.graph, topo.paths);
  const sim::OracleMeasurement oracle(*truth, cov, /*max_total_links=*/16);
  core::TheoremResult r;
  try {
    r = core::run_theorem_algorithm(cov, sets, oracle,
                                    {/*max_set_size=*/16, /*max_links=*/16});
  } catch (const Error&) {
    GTEST_SKIP() << "Assumption 4 does not hold for this seed";
  }
  for (graph::LinkId e = 0; e < topo.graph.link_count(); ++e) {
    ASSERT_NEAR(r.congestion_prob[e], truth->marginal(e), 1e-6)
        << "link " << e;
  }
}

}  // namespace
}  // namespace tomo

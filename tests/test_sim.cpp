#include <gtest/gtest.h>

#include <cmath>

#include "corr/model_factory.hpp"
#include "oracles/oracles.hpp"
#include "sim/estimator.hpp"
#include "sim/loss_model.hpp"
#include "sim/measurement.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace tomo::sim {
namespace {

// --------------------------------------------------------- loss model ----

TEST(LossModel, RatesRespectThreshold) {
  LossModel lm(0.01);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double good = lm.sample_loss_rate(rng, false);
    EXPECT_GE(good, 0.0);
    EXPECT_LE(good, 0.01);
    const double bad = lm.sample_loss_rate(rng, true);
    EXPECT_GE(bad, 0.01);
    EXPECT_LE(bad, 1.0);
  }
}

TEST(LossModel, PathThresholdFormula) {
  LossModel lm(0.01);
  EXPECT_NEAR(lm.path_threshold(1), 0.01, 1e-12);
  EXPECT_NEAR(lm.path_threshold(3), 1.0 - std::pow(0.99, 3), 1e-12);
  EXPECT_THROW(lm.path_threshold(0), Error);
}

TEST(LossModel, RejectsBadThreshold) {
  EXPECT_THROW(LossModel(0.0), Error);
  EXPECT_THROW(LossModel(1.0), Error);
}

// ------------------------------------------------- measurement block ----
// Per-bit writes on a block, with the counts read back through both the
// engine (EmpiricalMeasurement's block kernels) and the scalar oracle.

/// Runs `check` on both measurement implementations over `block`.
template <typename Check>
void check_both(const MeasurementBlock& block, Check check) {
  check(EmpiricalMeasurement(block));
  check(oracles::ScalarMeasurement(block));
}

TEST(MeasurementBlock, BitAccounting) {
  MeasurementBlock block = MeasurementBlock::all_good(2, 100);
  EXPECT_EQ(block.good_counts[0], 100u);
  block.set_congested(0, 3);
  block.set_congested(0, 64);  // second word
  block.set_congested(1, 3);
  block.recount();
  EXPECT_EQ(block.good_counts[0], 98u);
  EXPECT_FALSE(block.good(0, 3));
  EXPECT_TRUE(block.good(0, 4));
  check_both(block, [](const auto& m) {
    EXPECT_EQ(m.good_count(0), 98u);
    // Congested snapshots of either path: {3, 64} -> 98 jointly good.
    EXPECT_DOUBLE_EQ(m.pair_good_prob(0, 1), 98.0 / 100.0);
    EXPECT_DOUBLE_EQ(m.all_good_prob({0, 1}), 98.0 / 100.0);
  });
}

TEST(MeasurementBlock, ExactPatternCount) {
  MeasurementBlock block = MeasurementBlock::all_good(3, 10);
  // Snapshot 0: paths {0,1} congested. Snapshot 1: {0}. Snapshot 2: {0,1}.
  block.set_congested(0, 0);
  block.set_congested(1, 0);
  block.set_congested(0, 1);
  block.set_congested(0, 2);
  block.set_congested(1, 2);
  block.recount();
  check_both(block, [](const auto& m) {
    EXPECT_DOUBLE_EQ(m.exact_pattern_prob({0, 1}), 2.0 / 10.0);
    EXPECT_DOUBLE_EQ(m.exact_pattern_prob({0}), 1.0 / 10.0);
    EXPECT_DOUBLE_EQ(m.exact_pattern_prob({}), 7.0 / 10.0);
    EXPECT_DOUBLE_EQ(m.exact_pattern_prob({2}), 0.0);
  });
}

TEST(MeasurementBlock, TailBitsDoNotLeak) {
  // snapshot_count not a multiple of 64: the all-good pattern must count
  // only real snapshots.
  const MeasurementBlock block = MeasurementBlock::all_good(1, 70);
  check_both(block, [](const auto& m) {
    EXPECT_DOUBLE_EQ(m.exact_pattern_prob({}), 1.0);
    EXPECT_EQ(m.good_count(0), 70u);
  });
}

// ---------------------------------------------------------- simulator ----

TEST(Simulator, ExactModeAppliesSeparability) {
  auto sys = tomo::testing::figure_1a();
  // e3 always congested, everything else always good.
  auto model = corr::make_independent({0.0, 0.0, 1.0, 0.0});
  SimulatorConfig config;
  config.snapshots = 50;
  config.mode = PacketMode::kExact;
  const auto result = simulate(sys.graph, sys.paths, *model, config);
  // P1={e1,e3} and P2={e2,e3} congested every snapshot; P3={e2,e4} never.
  EXPECT_EQ(result.measurement.good_counts.at(0), 0u);
  EXPECT_EQ(result.measurement.good_counts.at(1), 0u);
  EXPECT_EQ(result.measurement.good_counts.at(2), 50u);
  EXPECT_EQ(result.link_congested_count[2], 50u);
  EXPECT_EQ(result.link_congested_count[0], 0u);
}

TEST(Simulator, BinomialModeDetectsCongestionReliably) {
  auto sys = tomo::testing::figure_1a();
  auto model = corr::make_independent({0.0, 0.0, 1.0, 0.0});
  SimulatorConfig config;
  config.snapshots = 200;
  config.packets_per_path = 1000;
  config.mode = PacketMode::kBinomial;
  config.seed = 9;
  const auto result = simulate(sys.graph, sys.paths, *model, config);
  // With 1000 packets, a congested path (loss > ~1%) is almost always
  // detected and a good path almost never misflagged.
  EXPECT_LE(result.measurement.good_counts.at(0), 20u);
  EXPECT_GE(result.measurement.good_counts.at(2), 180u);
}

TEST(Simulator, PerPacketAgreesWithBinomialStatistically) {
  auto sys = tomo::testing::figure_1a();
  auto model = corr::make_independent({0.3, 0.0, 0.0, 0.3});
  SimulatorConfig binom;
  binom.snapshots = 400;
  binom.packets_per_path = 200;
  binom.mode = PacketMode::kBinomial;
  binom.seed = 17;
  SimulatorConfig perpkt = binom;
  perpkt.seed = 18;
  const auto rb = simulate(sys.graph, sys.paths, *model, binom);
  const auto rp =
      oracles::simulate_per_packet(sys.graph, sys.paths, *model, perpkt);
  // Same congestion process statistics: good fractions agree within noise.
  for (graph::PathId p = 0; p < 3; ++p) {
    const double fb = static_cast<double>(rb.measurement.good_counts.at(p)) /
                      binom.snapshots;
    const double fp = static_cast<double>(rp.measurement.good_counts.at(p)) /
                      perpkt.snapshots;
    EXPECT_NEAR(fb, fp, 0.08) << "path " << p;
  }
}

TEST(Simulator, DeterministicInSeed) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  SimulatorConfig config;
  config.snapshots = 100;
  config.seed = 33;
  const auto r1 = simulate(sys.graph, sys.paths, *model, config);
  const auto r2 = simulate(sys.graph, sys.paths, *model, config);
  for (graph::PathId p = 0; p < 3; ++p) {
    EXPECT_EQ(r1.measurement.good_counts.at(p),
              r2.measurement.good_counts.at(p));
  }
}

TEST(Simulator, EmpiricalMarginalsTrackModel) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  SimulatorConfig config;
  config.snapshots = 20000;
  config.mode = PacketMode::kExact;
  config.seed = 5;
  const auto result = simulate(sys.graph, sys.paths, *model, config);
  for (graph::LinkId e = 0; e < 4; ++e) {
    const double freq =
        static_cast<double>(result.link_congested_count[e]) /
        static_cast<double>(config.snapshots);
    EXPECT_NEAR(freq, model->marginal(e), 0.02) << "link " << e;
  }
}

// -------------------------------------------------------- measurement ----

TEST(EmpiricalMeasurement, ProbabilitiesFromCounts) {
  MeasurementBlock block = MeasurementBlock::all_good(2, 10);
  block.set_congested(0, 0);
  block.set_congested(0, 1);
  block.set_congested(1, 1);
  block.recount();
  const EmpiricalMeasurement m(block);
  EXPECT_DOUBLE_EQ(m.good_prob(0), 0.8);
  EXPECT_DOUBLE_EQ(m.good_prob(1), 0.9);
  EXPECT_DOUBLE_EQ(m.pair_good_prob(0, 1), 0.8);
  EXPECT_DOUBLE_EQ(m.all_good_prob({}), 1.0);
  EXPECT_DOUBLE_EQ(m.exact_pattern_prob({0}), 0.1);
  EXPECT_EQ(m.sample_count(), 10u);
}

// ------------------------------------------------------------- oracle ----

TEST(Oracle, PathProbabilitiesMatchModel) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const OracleMeasurement oracle(*model, cov);
  // P1 = {e1,e3}: P(good) = P(e1 good) * P(e3 good).
  EXPECT_NEAR(oracle.good_prob(0), 0.70 * 0.85, 1e-12);
  // Pair (P1,P2) involves {e1,e2,e3}.
  EXPECT_NEAR(oracle.pair_good_prob(0, 1), 0.65 * 0.85, 1e-12);
  EXPECT_EQ(oracle.sample_count(), 0u);
}

TEST(Oracle, PatternProbabilitiesSumToOne) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const OracleMeasurement oracle(*model, cov);
  // Sum of P(ψ(S) = T) over all subsets T of paths must be 1.
  double total = 0.0;
  for (std::uint32_t mask = 0; mask < 8; ++mask) {
    graph::PathIdSet pattern;
    for (std::uint32_t bit = 0; bit < 3; ++bit) {
      if (mask & (1u << bit)) pattern.push_back(bit);
    }
    total += oracle.exact_pattern_prob(pattern);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Oracle, PatternProbMatchesEmpirical) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const OracleMeasurement oracle(*model, cov);
  SimulatorConfig config;
  config.snapshots = 50000;
  config.mode = PacketMode::kExact;
  config.seed = 77;
  const auto result = simulate(sys.graph, sys.paths, *model, config);
  const EmpiricalMeasurement empirical(result.measurement);
  for (const graph::PathIdSet& pattern :
       {graph::PathIdSet{}, {0}, {0, 1}, {0, 1, 2}, {2}}) {
    EXPECT_NEAR(empirical.exact_pattern_prob(pattern),
                oracle.exact_pattern_prob(pattern), 0.01);
  }
}

// ---------------------------------------------------------- estimator ----

TEST(LogEstimate, UsableAndUnusableCases) {
  const auto ok = log_estimate(0.5, 100);
  EXPECT_TRUE(ok.usable);
  EXPECT_NEAR(ok.log_prob, std::log(0.5), 1e-12);

  const auto zero = log_estimate(0.0, 100);
  EXPECT_FALSE(zero.usable);

  // 0.005 * 100 = 0.5 good snapshots < 1 required.
  const auto thin = log_estimate(0.005, 100);
  EXPECT_FALSE(thin.usable);

  // Oracle estimates (samples = 0) are usable whenever positive.
  const auto oracle = log_estimate(1e-9, 0);
  EXPECT_TRUE(oracle.usable);

  EXPECT_THROW(log_estimate(-0.1, 10), Error);
}

}  // namespace
}  // namespace tomo::sim

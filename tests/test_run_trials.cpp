// The determinism contract of the parallel trial engine: for a fixed base
// seed, run_trials returns bit-identical outcomes for any worker count,
// because every trial derives its own RNG streams from (seed, tag, trial)
// and results are reduced in trial order.
#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hpp"
#include "core/run_trials.hpp"
#include "core/scenario.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using tomo::core::TrialContext;
using tomo::core::run_trials;

TEST(TrialContext, SeedMatchesTheBenchConvention) {
  const TrialContext ctx{5, 123};
  EXPECT_EQ(ctx.seed(0x3a00), tomo::mix_seed(123, 0x3a00 + 5));
  // Different tags give different streams for the same trial.
  EXPECT_NE(ctx.seed(0x3a00), ctx.seed(0x3b00));
}

TEST(RunTrials, ZeroTrialsYieldNothing) {
  const tomo::util::ScopedWidth width(4);
  const auto outcomes =
      run_trials(0, 1, [](const TrialContext&) { return 1; });
  EXPECT_TRUE(outcomes.empty());
}

TEST(RunTrials, OutcomesArriveInTrialOrderWithTimings) {
  const tomo::util::ScopedWidth width(3);
  const auto outcomes = run_trials(
      8, 99, [](const TrialContext& ctx) { return ctx.trial * 10; });
  ASSERT_EQ(outcomes.size(), 8u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].index, i);
    EXPECT_EQ(outcomes[i].value, i * 10);
    EXPECT_GE(outcomes[i].seconds, 0.0);
  }
}

// A seeded stochastic body must produce identical values no matter how
// many workers ran it — the property every figure binary's --jobs flag
// relies on.
TEST(RunTrials, JobsCountNeverChangesSeededRandomOutput) {
  const auto body = [](const TrialContext& ctx) {
    tomo::Rng rng(ctx.seed(0x7700));
    std::vector<double> draws;
    for (int i = 0; i < 100; ++i) draws.push_back(rng.uniform());
    return draws;
  };
  const auto serial = run_trials(16, 42, body);
  for (const std::size_t jobs : {2u, 4u, 16u}) {
    const tomo::util::ScopedWidth width(jobs);
    const auto parallel = run_trials(16, 42, body);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].value, serial[i].value) << "jobs=" << jobs;
    }
  }
}

// End-to-end: a full (small) simulate -> infer -> score experiment per
// trial, compared across worker counts at every inferred probability.
TEST(RunTrials, ExperimentPipelineIsBitIdenticalAcrossJobs) {
  const auto body = [](const TrialContext& ctx) {
    tomo::core::ScenarioConfig scenario;
    scenario.as_nodes = 24;
    scenario.as_endpoints = 8;
    scenario.routers = 50;
    scenario.vantage_points = 6;
    scenario.seed = ctx.seed(0x1000);
    const auto inst = tomo::core::build_scenario(scenario);
    tomo::core::ExperimentConfig config;
    config.sim.snapshots = 120;
    config.sim.packets_per_path = 200;
    config.sim.seed = ctx.seed(0x2000);
    const auto result = tomo::core::run_experiment(inst, config);
    return result.correlation.congestion_prob;
  };
  const auto serial = run_trials(3, 7, body);
  const tomo::util::ScopedWidth width(3);
  const auto parallel = run_trials(3, 7, body);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].value.size(), parallel[i].value.size());
    for (std::size_t k = 0; k < serial[i].value.size(); ++k) {
      EXPECT_EQ(serial[i].value[k], parallel[i].value[k]);
    }
  }
}

}  // namespace

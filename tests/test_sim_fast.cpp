// Differential suite for the batched snapshot simulator.
//
// The block-batched engine (PacketMode::kBatched) is pinned against the
// independent serial oracle oracles::simulate_batched_reference, which
// shares only the RNG and the loss model (it restates the block seed tag
// and the fate rule): identical good-bit blocks, identical per-path good
// counts, and identical per-link congestion tallies, across every registry
// scenario and for any --jobs. Any divergence is an exactness bug, not a
// tolerance question, so the comparisons are exact. The packet-by-packet
// oracle oracles::simulate_per_packet is held to *statistical* agreement
// only — it draws one Bernoulli per packet and link, so its snapshot fates
// match the batched engine in distribution, not bitwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "corr/model_factory.hpp"
#include "graph/serialize.hpp"
#include "oracles/oracles.hpp"
#include "sim/measurement.hpp"
#include "sim/measurement_block.hpp"
#include "sim/obs_io.hpp"
#include "sim/simulator.hpp"
#include "topogen/planetlab_like.hpp"
#include "util/thread_pool.hpp"

namespace tomo::sim {
namespace {

void expect_identical(const SimulationResult& a, const SimulationResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.snapshots, b.snapshots) << what;
  ASSERT_EQ(a.measurement.path_count, b.measurement.path_count) << what;
  ASSERT_EQ(a.measurement.snapshot_count, b.measurement.snapshot_count)
      << what;
  // Bitwise identity of the packed good-bit rows, word for word.
  ASSERT_EQ(a.measurement.good_bits, b.measurement.good_bits) << what;
  EXPECT_EQ(a.measurement.good_counts, b.measurement.good_counts) << what;
  EXPECT_EQ(a.link_congested_count, b.link_congested_count) << what;
}

SimulatorConfig config_for(std::size_t snapshots) {
  SimulatorConfig config;
  config.snapshots = snapshots;
  config.packets_per_path = 500;
  config.seed = 0xba7c4ed;
  return config;
}

SimulationResult run(const core::ScenarioInstance& inst, std::size_t jobs,
                     std::size_t snapshots) {
  const util::ScopedWidth width(jobs);
  return simulate(inst.graph, inst.paths, *inst.truth,
                  config_for(snapshots));
}

class RegistrySimDifferential
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistrySimDifferential, BatchedMatchesReferenceBitExactly) {
  core::ScenarioConfig config = core::shrink_for_tests(
      core::ScenarioCatalog::instance().at(GetParam()).config);
  config.seed = 0x51f7;
  const core::ScenarioInstance inst = core::build_scenario(config);

  // 150 snapshots: two full 64-snapshot blocks plus a ragged tail word,
  // so the final-word masking is exercised on every scenario.
  const SimulationResult reference = oracles::simulate_batched_reference(
      inst.graph, inst.paths, *inst.truth, config_for(150));
  const SimulationResult batched = run(inst, 1, 150);
  expect_identical(batched, reference, GetParam() + " jobs=1");

  const SimulationResult threaded = run(inst, 3, 150);
  expect_identical(threaded, reference, GetParam() + " jobs=3");
}

TEST_P(RegistrySimDifferential, ObservationsRoundTripThroughBlock) {
  core::ScenarioConfig config = core::shrink_for_tests(
      core::ScenarioCatalog::instance().at(GetParam()).config);
  config.seed = 0x0b5e;
  const core::ScenarioInstance inst = core::build_scenario(config);
  const SimulationResult result = run(inst, 1, 97);

  // block -> observation file (congested lines) -> block is the
  // identity, including the zeroed tail bits past the snapshot count.
  std::stringstream file;
  write_observations(file, result.measurement);
  const MeasurementBlock back = read_observation_block(file);
  EXPECT_EQ(back.good_bits, result.measurement.good_bits) << GetParam();
  EXPECT_EQ(back.good_counts, result.measurement.good_counts) << GetParam();

  // Adopting the simulator's block and the scalar oracle over the
  // re-read one must answer set queries identically.
  const EmpiricalMeasurement adopted(result.measurement);
  const oracles::ScalarMeasurement scalar(back);
  for (graph::PathId p = 0; p < back.path_count; ++p) {
    ASSERT_EQ(adopted.good_prob(p), scalar.good_prob(p))
        << GetParam() << " path " << p;
  }
}

std::vector<std::string> registry_names() {
  return core::ScenarioCatalog::instance().names();
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistrySimDifferential,
    ::testing::ValuesIn(registry_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(SimFast, PerPacketAgreesWithBatchedAtBlockGranularity) {
  core::ScenarioConfig config = core::shrink_for_tests(
      core::ScenarioCatalog::instance().at("brite-high").config);
  config.seed = 0x9e12;
  const core::ScenarioInstance inst = core::build_scenario(config);

  // Per-packet draws individual Bernoullis; batched classifies certain
  // fates analytically and samples one binomial otherwise. The two agree
  // in distribution, so per-path good frequencies over many blocks must
  // match within a few binomial standard errors.
  const std::size_t snapshots = 64 * 40;  // 40 full blocks
  const SimulationResult batched = run(inst, 1, snapshots);
  const SimulationResult per_packet = oracles::simulate_per_packet(
      inst.graph, inst.paths, *inst.truth, config_for(snapshots));

  const double n = static_cast<double>(snapshots);
  for (graph::PathId p = 0; p < inst.paths.size(); ++p) {
    const double fb =
        static_cast<double>(batched.measurement.good_counts[p]) / n;
    const double fp =
        static_cast<double>(per_packet.measurement.good_counts[p]) / n;
    // 5 sigma of a Bernoulli(f) mean over n snapshots, floored for the
    // near-deterministic paths.
    const double sigma =
        std::sqrt(std::max(fb * (1.0 - fb), 1e-4) / n);
    EXPECT_NEAR(fb, fp, 5.0 * sigma + 5e-3) << "path " << p;
  }
}

TEST(SimFast, BatchedIsInvariantAcrossJobCounts) {
  core::ScenarioConfig config = core::shrink_for_tests(
      core::ScenarioCatalog::instance().at("waxman-bursty").config);
  config.seed = 0x0b5;
  const core::ScenarioInstance inst = core::build_scenario(config);
  const SimulationResult one = run(inst, 1, 333);
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{5},
                                 std::size_t{0}}) {
    const SimulationResult many = run(inst, jobs, 333);
    expect_identical(many, one, "jobs=" + std::to_string(jobs));
  }
}

// The inputs of the CLI workflow: the topology `tomo_cli gen --kind
// planetlab --size 80 --endpoints 8 --seed 3` writes, and the clustered
// ground truth and simulator seed `tomo_cli simulate --snapshots 500
// --packets 400 --seed 11` derives from it. The observation file the
// batched engine writes at widths 1 and 8 must be byte-identical to the
// oracle's.
TEST(SimOracle, CliPlanetlabInputsMatchBatchedReference) {
  topogen::PlanetLabParams params;
  params.routers = 80;
  params.vantage_points = 8;
  params.cluster_size = 6;
  params.fabric_prob = 0.65;
  params.seed = 3;
  topogen::GeneratedTopology topo = topogen::generate_planetlab_like(params);
  graph::MeasuredSystem generated;
  generated.graph = std::move(topo.graph);
  generated.paths = std::move(topo.paths);
  generated.partition = std::move(topo.partition);
  // Through the topology file, as the CLI reads it back.
  std::stringstream topology_file;
  graph::write_system(topology_file, generated);
  const graph::MeasuredSystem system = graph::read_system(topology_file);
  ASSERT_FALSE(system.partition.empty());
  const corr::CorrelationSets sets(system.graph.link_count(),
                                   system.partition);

  Rng rng(11);
  const std::size_t target = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             0.1 * static_cast<double>(system.graph.link_count())));
  std::vector<graph::LinkId> congested;
  for (std::size_t idx : rng.sample_without_replacement(
           system.graph.link_count(), target)) {
    congested.push_back(idx);
  }
  std::sort(congested.begin(), congested.end());
  std::vector<double> marginals(congested.size());
  for (double& m : marginals) m = rng.uniform(0.1, 0.6);
  const auto truth =
      corr::make_clustered_shock_model(sets, congested, marginals, 0.95);

  SimulatorConfig config;
  config.snapshots = 500;
  config.packets_per_path = 400;
  config.seed = rng();

  const auto observation_bytes = [](const SimulationResult& r) {
    std::stringstream out;
    write_observations(out, r.measurement);
    return out.str();
  };
  const std::string reference = observation_bytes(
      oracles::simulate_batched_reference(system.graph, system.paths,
                                          *truth, config));
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    const util::ScopedWidth width(jobs);
    const std::string batched = observation_bytes(
        simulate(system.graph, system.paths, *truth, config));
    EXPECT_EQ(batched, reference) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace tomo::sim

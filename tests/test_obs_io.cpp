#include <gtest/gtest.h>

#include <sstream>

#include "corr/model_factory.hpp"
#include "sim/obs_io.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace tomo::sim {
namespace {

TEST(ObsIo, RoundTripPreservesEveryBit) {
  PathObservations obs(3, 100);
  obs.set_congested(0, 0);
  obs.set_congested(0, 99);
  obs.set_congested(2, 63);
  obs.set_congested(2, 64);
  std::stringstream buffer;
  write_observations(buffer, obs);
  const PathObservations loaded = read_observations(buffer);
  ASSERT_EQ(loaded.path_count(), 3u);
  ASSERT_EQ(loaded.snapshot_count(), 100u);
  for (PathId p = 0; p < 3; ++p) {
    for (std::size_t n = 0; n < 100; ++n) {
      ASSERT_EQ(loaded.congested(p, n), obs.congested(p, n))
          << "path " << p << " snapshot " << n;
    }
  }
}

TEST(ObsIo, RoundTripSimulatedData) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  SimulatorConfig config;
  config.snapshots = 500;
  config.seed = 5;
  const auto result = simulate(sys.graph, sys.paths, *model, config);
  std::stringstream buffer;
  write_observations(buffer, result.observations());
  const PathObservations loaded = read_observations(buffer);
  for (PathId p = 0; p < 3; ++p) {
    EXPECT_EQ(loaded.good_count(p), result.observations().good_count(p));
  }
  EXPECT_EQ(loaded.exact_pattern_count({0, 1}),
            result.observations().exact_pattern_count({0, 1}));
}

TEST(ObsIo, AllGoodMatrixSerializesCompactly) {
  PathObservations obs(2, 50);
  std::stringstream buffer;
  write_observations(buffer, obs);
  const PathObservations loaded = read_observations(buffer);
  EXPECT_EQ(loaded.good_count(0), 50u);
  EXPECT_EQ(loaded.good_count(1), 50u);
}

TEST(ObsIo, RejectsMalformedInput) {
  {
    std::stringstream s("paths 2 snapshots 5\n");
    EXPECT_THROW(read_observations(s), Error);  // missing header
  }
  {
    std::stringstream s("tomo-observations v1\n");
    EXPECT_THROW(read_observations(s), Error);  // missing dimensions
  }
  {
    std::stringstream s(
        "tomo-observations v1\npaths 2 snapshots 5\ncongested 9 0\n");
    EXPECT_THROW(read_observations(s), Error);  // path out of range
  }
  {
    std::stringstream s(
        "tomo-observations v1\npaths 2 snapshots 5\ncongested 0 7\n");
    EXPECT_THROW(read_observations(s), Error);  // snapshot out of range
  }
  {
    std::stringstream s(
        "tomo-observations v1\npaths 0 snapshots 5\n");
    EXPECT_THROW(read_observations(s), Error);  // empty matrix
  }
  {
    std::stringstream s(
        "tomo-observations v1\npaths 2 snapshots 5\nbogus 1\n");
    EXPECT_THROW(read_observations(s), Error);  // unknown tag
  }
}

// A dimension line whose bit matrix exceeds what a std::vector holds (also
// when `snapshots + 63` itself wraps) is rejected with its line number,
// not wrapped into a short allocation that set_congested writes past.
TEST(ObsIo, RejectsDimensionLinesWhoseBitMatrixOverflows) {
  for (const char* dims : {"128 snapshots 9223372036854775808",
                           "128 snapshots 18446744073709551615"}) {
    std::stringstream s(std::string("tomo-observations v1\npaths ") + dims +
                        "\ncongested 0 5\n");
    try {
      read_observations(s);
      FAIL() << "expected tomo::Error for paths " << dims;
    } catch (const Error& e) {
      EXPECT_NE(e.message().find("line 2"), std::string::npos)
          << e.message();
    }
  }
}

// The SimulationResult::observations() / obs-IO asymmetry fix: the
// bitmask block now writes and re-reads directly, so daemon replay inputs
// are trustworthy without a PathObservations detour.
TEST(ObsIo, MeasurementBlockRoundTripIsBitIdentical) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  SimulatorConfig config;
  config.snapshots = 197;  // ragged tail word: 197 = 3*64 + 5
  config.seed = 11;
  const auto result = simulate(sys.graph, sys.paths, *model, config);
  const MeasurementBlock& block = result.measurement;

  std::stringstream buffer;
  write_observations(buffer, block);
  const MeasurementBlock loaded = read_observation_block(buffer);
  ASSERT_EQ(loaded.path_count, block.path_count);
  ASSERT_EQ(loaded.snapshot_count, block.snapshot_count);
  EXPECT_EQ(loaded.good_bits, block.good_bits)
      << "tail words included, bit for bit";
  EXPECT_EQ(loaded.good_counts, block.good_counts);
}

TEST(ObsIo, BlockWriterMatchesObservationWriterByteForByte) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  SimulatorConfig config;
  config.snapshots = 130;
  config.seed = 12;
  const auto result = simulate(sys.graph, sys.paths, *model, config);

  // The block writer complements bits inline; the observation writer
  // walks the congested-bit view. Same file either way.
  std::stringstream from_block;
  write_observations(from_block, result.measurement);
  std::stringstream from_obs;
  write_observations(from_obs, result.observations());
  EXPECT_EQ(from_block.str(), from_obs.str());
}

TEST(ObsIo, IgnoresCommentsAndBlankLines) {
  std::stringstream s(
      "# recorded by prober\n\ntomo-observations v1\n"
      "paths 1 snapshots 4  # dims\ncongested 0 1 3\n");
  const PathObservations loaded = read_observations(s);
  EXPECT_TRUE(loaded.congested(0, 1));
  EXPECT_TRUE(loaded.congested(0, 3));
  EXPECT_FALSE(loaded.congested(0, 0));
}

}  // namespace
}  // namespace tomo::sim

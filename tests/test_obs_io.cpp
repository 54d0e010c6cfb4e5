#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "corr/model_factory.hpp"
#include "sim/measurement.hpp"
#include "sim/obs_io.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace tomo::sim {
namespace {

TEST(ObsIo, RoundTripPreservesEveryBit) {
  MeasurementBlock block = MeasurementBlock::all_good(3, 100);
  block.set_congested(0, 0);
  block.set_congested(0, 99);
  block.set_congested(2, 63);
  block.set_congested(2, 64);
  block.recount();
  std::stringstream buffer;
  write_observations(buffer, block);
  const MeasurementBlock loaded = read_observation_block(buffer);
  ASSERT_EQ(loaded.path_count, 3u);
  ASSERT_EQ(loaded.snapshot_count, 100u);
  for (PathId p = 0; p < 3; ++p) {
    for (std::size_t n = 0; n < 100; ++n) {
      ASSERT_EQ(loaded.good(p, n), block.good(p, n))
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
  write_observations(buffer, result.measurement);
  const MeasurementBlock loaded = read_observation_block(buffer);
  for (PathId p = 0; p < 3; ++p) {
    EXPECT_EQ(loaded.good_counts[p], result.measurement.good_counts[p]);
  }
  EXPECT_EQ(EmpiricalMeasurement(loaded).exact_pattern_prob({0, 1}),
            EmpiricalMeasurement(result.measurement)
                .exact_pattern_prob({0, 1}));
}

TEST(ObsIo, AllGoodMatrixSerializesCompactly) {
  std::stringstream buffer;
  write_observations(buffer, MeasurementBlock::all_good(2, 50));
  EXPECT_EQ(buffer.str().find("congested"), std::string::npos);
  const MeasurementBlock loaded = read_observation_block(buffer);
  EXPECT_EQ(loaded.good_counts[0], 50u);
  EXPECT_EQ(loaded.good_counts[1], 50u);
}

TEST(ObsIo, RejectsMalformedInput) {
  {
    std::stringstream s("paths 2 snapshots 5\n");
    EXPECT_THROW(read_observation_block(s), Error);  // missing header
  }
  {
    std::stringstream s("tomo-observations v1\n");
    EXPECT_THROW(read_observation_block(s), Error);  // missing dimensions
  }
  {
    std::stringstream s(
        "tomo-observations v1\npaths 2 snapshots 5\ncongested 9 0\n");
    EXPECT_THROW(read_observation_block(s), Error);  // path out of range
  }
  {
    std::stringstream s(
        "tomo-observations v1\npaths 2 snapshots 5\ncongested 0 7\n");
    EXPECT_THROW(read_observation_block(s), Error);  // snapshot out of range
  }
  {
    std::stringstream s(
        "tomo-observations v1\npaths 0 snapshots 5\n");
    EXPECT_THROW(read_observation_block(s), Error);  // empty matrix
  }
  {
    std::stringstream s(
        "tomo-observations v1\npaths 2 snapshots 5\nbogus 1\n");
    EXPECT_THROW(read_observation_block(s), Error);  // unknown tag
  }
  // A line must be consumed to its end: a stray or non-numeric token
  // fails with the line's number instead of silently dropping the rest.
  const struct {
    const char* text;
    const char* line;
  } leftovers[] = {
      {"tomo-observations v1\npaths 2 snapshots 5\ncongested 0 1 2 junk 3\n",
       "line 3"},
      {"tomo-observations v1\npaths 2 snapshots 9\ncongested 0 1 2 3.5 7\n",
       "line 3"},
      {"tomo-observations v1\npaths 2 snapshots 9\ncongested x 1\n",
       "line 3"},
      {"tomo-observations v1\npaths 2 snapshots 9\ncongested 0 -1\n",
       "line 3"},
      {"tomo-observations v1\npaths 2 snapshots 9\n"
       "congested 0 99999999999999999999999\n",
       "line 3"},
      {"tomo-observations v1\npaths 12 snapshots 100 trailing\n", "line 2"},
      {"tomo-observations v1\npaths 12 snapshots 100.5\n", "line 2"},
      {"tomo-observations v1 extra\npaths 2 snapshots 5\n", "line 1"},
  };
  for (const auto& c : leftovers) {
    std::stringstream s(c.text);
    try {
      read_observation_block(s);
      FAIL() << "expected tomo::Error for " << c.text;
    } catch (const Error& e) {
      EXPECT_NE(e.message().find(c.line), std::string::npos) << e.message();
    }
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
      read_observation_block(s);
      FAIL() << "expected tomo::Error for paths " << dims;
    } catch (const Error& e) {
      EXPECT_NE(e.message().find("line 2"), std::string::npos)
          << e.message();
    }
  }
}

// The bitmask block writes and re-reads directly, so daemon replay inputs
// are bit-identical to the simulator's output.
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

  // The block writer complements bits inline; this reference walks the
  // congested bits one MeasurementBlock::good query at a time. Same file
  // either way.
  const MeasurementBlock& block = result.measurement;
  std::ostringstream from_bits;
  from_bits << "tomo-observations v1\npaths " << block.path_count
            << " snapshots " << block.snapshot_count << '\n';
  for (PathId p = 0; p < block.path_count; ++p) {
    bool any = false;
    for (std::size_t n = 0; n < block.snapshot_count; ++n) {
      if (block.good(p, n)) continue;
      from_bits << (any ? " " : "congested " + std::to_string(p) + " ") << n;
      any = true;
    }
    if (any) from_bits << '\n';
  }
  std::stringstream from_block;
  write_observations(from_block, block);
  EXPECT_EQ(from_block.str(), from_bits.str());
}

TEST(ObsIo, IgnoresCommentsAndBlankLines) {
  std::stringstream s(
      "# recorded by prober\n\ntomo-observations v1\n"
      "paths 1 snapshots 4  # dims\ncongested 0 1 3\n");
  const MeasurementBlock loaded = read_observation_block(s);
  EXPECT_FALSE(loaded.good(0, 1));
  EXPECT_TRUE(loaded.good(0, 0));
  EXPECT_FALSE(loaded.good(0, 3));
  EXPECT_EQ(loaded.good_counts[0], 2u);
}

}  // namespace
}  // namespace tomo::sim

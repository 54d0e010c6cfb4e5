// Pins the inter-target link graph: instantiates one object from each of
// the nine library layers and from the test-only oracle library, so a
// future layering break (a layer dropped from the umbrella target, a
// missing inter-layer link dependency) fails this suite before anything
// subtler does.
#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "corr/correlation.hpp"
#include "graph/graph.hpp"
#include "linalg/matrix.hpp"
#include "metrics/cdf.hpp"
#include "oracles/oracles.hpp"
#include "sim/measurement_block.hpp"
#include "stream/window_ring.hpp"
#include "topogen/waxman.hpp"
#include "util/rng.hpp"

namespace {

TEST(BuildSanity, UtilLayerLinks) {
  tomo::Rng rng(42);
  EXPECT_GE(rng.uniform(), 0.0);
}

TEST(BuildSanity, LinalgLayerLinks) {
  tomo::linalg::Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
}

TEST(BuildSanity, GraphLayerLinks) {
  tomo::graph::Graph g;
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  g.add_link(a, b);
  EXPECT_EQ(g.link_count(), 1u);
}

TEST(BuildSanity, CorrLayerLinks) {
  const auto sets = tomo::corr::CorrelationSets::singletons(4);
  EXPECT_EQ(sets.set_count(), 4u);
}

TEST(BuildSanity, SimLayerLinks) {
  auto block = tomo::sim::MeasurementBlock::all_good(2, 8);
  block.set_congested(0, 3);
  EXPECT_FALSE(block.good(0, 3));
}

TEST(BuildSanity, TopogenLayerLinks) {
  tomo::Rng rng(7);
  const auto edges = tomo::topogen::waxman_edges(8, {}, rng);
  EXPECT_LE(edges.size(), 8u * 7u);
}

TEST(BuildSanity, MetricsLayerLinks) {
  const std::vector<double> samples = {0.1, 0.2, 0.3};
  EXPECT_DOUBLE_EQ(tomo::metrics::cdf_at(samples, 1.0), 100.0);
}

TEST(BuildSanity, CoreLayerLinks) {
  tomo::core::ScenarioConfig config;
  EXPECT_GT(config.as_nodes, 0u);
}

TEST(BuildSanity, StreamLayerLinks) {
  tomo::stream::WindowRing ring(2);
  EXPECT_EQ(ring.capacity(), 2u);
}

TEST(BuildSanity, OracleLibraryLinks) {
  auto block = tomo::sim::MeasurementBlock::all_good(2, 8);
  block.set_congested(1, 5);
  block.recount();
  const tomo::oracles::ScalarMeasurement scalar(std::move(block));
  EXPECT_EQ(scalar.good_count(1), 7u);
}

}  // namespace

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/coverage.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "graph/routing.hpp"
#include "graph/serialize.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace tomo::graph {
namespace {

// -------------------------------------------------------------- graph ----

TEST(Graph, AddNodesAndLinks) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node();
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.node_name(a), "a");
  EXPECT_EQ(g.node_name(b), "v1");
  const LinkId e = g.add_link(a, b);
  EXPECT_EQ(g.link_count(), 1u);
  EXPECT_EQ(g.link(e).src, a);
  EXPECT_EQ(g.link(e).dst, b);
}

TEST(Graph, AdjacencyLists) {
  Graph g;
  const NodeId a = g.add_node(), b = g.add_node(), c = g.add_node();
  const LinkId ab = g.add_link(a, b);
  const LinkId ac = g.add_link(a, c);
  const LinkId cb = g.add_link(c, b);
  EXPECT_EQ(g.out_links(a), (std::vector<LinkId>{ab, ac}));
  EXPECT_EQ(g.in_links(b), (std::vector<LinkId>{ab, cb}));
  EXPECT_TRUE(g.out_links(b).empty());
}

TEST(Graph, FindLink) {
  Graph g;
  const NodeId a = g.add_node(), b = g.add_node();
  EXPECT_FALSE(g.find_link(a, b).has_value());
  const LinkId e = g.add_link(a, b);
  EXPECT_EQ(g.find_link(a, b), e);
  EXPECT_FALSE(g.find_link(b, a).has_value());
}

TEST(Graph, RejectsSelfLoopsAndBadIds) {
  Graph g;
  const NodeId a = g.add_node();
  EXPECT_THROW(g.add_link(a, a), Error);
  EXPECT_THROW(g.add_link(a, 99), Error);
  EXPECT_THROW(g.link(0), Error);
  EXPECT_THROW(g.node_name(5), Error);
}

TEST(Graph, ParallelLinksAllowed) {
  Graph g;
  const NodeId a = g.add_node(), b = g.add_node();
  const LinkId e1 = g.add_link(a, b);
  const LinkId e2 = g.add_link(a, b);
  EXPECT_NE(e1, e2);
  EXPECT_EQ(g.out_links(a).size(), 2u);
}

// --------------------------------------------------------------- path ----

TEST(Path, ValidPathEndpoints) {
  Graph g;
  const NodeId a = g.add_node(), b = g.add_node(), c = g.add_node();
  const LinkId ab = g.add_link(a, b), bc = g.add_link(b, c);
  const Path p(g, {ab, bc});
  EXPECT_EQ(p.source(), a);
  EXPECT_EQ(p.destination(), c);
  EXPECT_EQ(p.length(), 2u);
  EXPECT_TRUE(p.traverses(ab));
  EXPECT_FALSE(p.traverses(99));
}

TEST(Path, RejectsEmptyAndNonContiguous) {
  Graph g;
  const NodeId a = g.add_node(), b = g.add_node(), c = g.add_node();
  const LinkId ab = g.add_link(a, b);
  const LinkId ca = g.add_link(c, a);
  EXPECT_THROW(Path(g, {}), Error);
  EXPECT_THROW(Path(g, {ab, ca}), Error);  // b != c
}

TEST(Path, RejectsLoops) {
  Graph g;
  const NodeId a = g.add_node(), b = g.add_node();
  const LinkId ab = g.add_link(a, b), ba = g.add_link(b, a);
  // a -> b -> a revisits node a.
  EXPECT_THROW(Path(g, {ab, ba}), Error);
}

TEST(Path, FullCoverageCheck) {
  Graph g;
  const NodeId a = g.add_node(), b = g.add_node(), c = g.add_node();
  const LinkId ab = g.add_link(a, b);
  g.add_link(b, c);  // never used by a path
  std::vector<Path> paths;
  paths.emplace_back(g, std::vector<LinkId>{ab});
  EXPECT_THROW(require_full_coverage(g, paths), Error);
}

// ----------------------------------------------------------- coverage ----

TEST(Coverage, PathsThroughAndPsi) {
  auto sys = tomo::testing::figure_1a();
  const CoverageIndex cov(sys.graph, sys.paths);
  EXPECT_EQ(cov.link_count(), 4u);
  EXPECT_EQ(cov.path_count(), 3u);
  // The paper's ψ table for Figure 1(a).
  EXPECT_EQ(cov.paths_through(0), (PathIdSet{0}));        // e1 -> {P1}
  EXPECT_EQ(cov.paths_through(1), (PathIdSet{1, 2}));     // e2 -> {P2,P3}
  EXPECT_EQ(cov.paths_through(2), (PathIdSet{0, 1}));     // e3 -> {P1,P2}
  EXPECT_EQ(cov.paths_through(3), (PathIdSet{2}));        // e4 -> {P3}
  EXPECT_EQ(cov.covered_paths({0, 1}), (PathIdSet{0, 1, 2}));
  EXPECT_TRUE(cov.all_links_covered());
}

TEST(Coverage, Figure1bCollision) {
  auto sys = tomo::testing::figure_1b();
  const CoverageIndex cov(sys.graph, sys.paths);
  // ψ({e1,e2}) == ψ({e3}) — the identifiability failure of Figure 1(b).
  EXPECT_EQ(cov.covered_paths({0, 1}), cov.covered_paths({2}));
}

TEST(Coverage, UnionHelper) {
  EXPECT_EQ(path_set_union({1, 3}, {2, 3}), (PathIdSet{1, 2, 3}));
  EXPECT_EQ(path_set_union({}, {5}), (PathIdSet{5}));
}

// ------------------------------------------------------------ routing ----

TEST(Routing, ShortestPathByHops) {
  Graph g;
  std::vector<NodeId> n;
  for (int i = 0; i < 4; ++i) n.push_back(g.add_node());
  g.add_link(n[0], n[1]);
  g.add_link(n[1], n[3]);
  const LinkId direct = g.add_link(n[0], n[3]);
  const auto p = shortest_path(g, n[0], n[3]);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->links(), (std::vector<LinkId>{direct}));
}

TEST(Routing, WeightsChangeRoute) {
  Graph g;
  std::vector<NodeId> n;
  for (int i = 0; i < 3; ++i) n.push_back(g.add_node());
  const LinkId ab = g.add_link(n[0], n[1]);
  const LinkId bc = g.add_link(n[1], n[2]);
  const LinkId ac = g.add_link(n[0], n[2]);
  std::vector<double> w{1.0, 1.0, 10.0};  // direct link expensive
  const auto p = shortest_path(g, n[0], n[2], w);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->links(), (std::vector<LinkId>{ab, bc}));
  (void)ac;
}

TEST(Routing, UnreachableReturnsNullopt) {
  Graph g;
  const NodeId a = g.add_node(), b = g.add_node();
  EXPECT_FALSE(shortest_path(g, a, b).has_value());
  EXPECT_FALSE(shortest_path(g, a, a).has_value());
}

TEST(Routing, MeshPathsSkipsUnreachablePairs) {
  Graph g;
  const NodeId a = g.add_node(), b = g.add_node(), c = g.add_node();
  g.add_link(a, b);
  g.add_link(b, a);
  const auto paths = mesh_paths(g, {a, b, c});
  EXPECT_EQ(paths.size(), 2u);  // a<->b only
}

TEST(Routing, RejectsNonPositiveWeights) {
  Graph g;
  const NodeId a = g.add_node(), b = g.add_node();
  g.add_link(a, b);
  EXPECT_THROW(shortest_path(g, a, b, {0.0}), Error);
  EXPECT_THROW(shortest_path(g, a, b, {1.0, 2.0}), Error);
}

// ---------------------------------------------------------- serialize ----

TEST(Serialize, RoundTrip) {
  auto sys = tomo::testing::figure_1a();
  MeasuredSystem ms;
  ms.graph = sys.graph;
  ms.paths = sys.paths;
  ms.partition = sys.sets.partition();
  std::stringstream buffer;
  write_system(buffer, ms);
  const MeasuredSystem loaded = read_system(buffer);
  EXPECT_EQ(loaded.graph.node_count(), ms.graph.node_count());
  EXPECT_EQ(loaded.graph.link_count(), ms.graph.link_count());
  ASSERT_EQ(loaded.paths.size(), ms.paths.size());
  for (std::size_t p = 0; p < ms.paths.size(); ++p) {
    EXPECT_EQ(loaded.paths[p].links(), ms.paths[p].links());
  }
  EXPECT_EQ(loaded.partition, ms.partition);
}

TEST(Serialize, RejectsMissingHeader) {
  std::stringstream buffer("node 0 a\n");
  EXPECT_THROW(read_system(buffer), Error);
}

TEST(Serialize, RejectsDanglingReferences) {
  std::stringstream buffer(
      "tomo-topology v1\nnode 0 a\nnode 1 b\nlink 0 0 5\n");
  EXPECT_THROW(read_system(buffer), Error);
}

TEST(Serialize, RejectsSparseIds) {
  std::stringstream buffer("tomo-topology v1\nnode 3 a\n");
  EXPECT_THROW(read_system(buffer), Error);
}

// Ids and link lists reject signed tokens with the line number: `-0` used
// to read as 0 and `-18446744073709551615` wrapped to 1, so both loaded as
// valid references.
TEST(Serialize, RejectsSignedIds) {
  const std::string base =
      "tomo-topology v1\nnode 0 a\nnode 1 b\nlink 0 0 1\n";
  const struct {
    std::string text;
    const char* line;
  } cases[] = {
      {"tomo-topology v1\nnode -0 a\n", "line 2"},
      {"tomo-topology v1\nnode 0 a\nnode 1 b\n"
       "link 0 0 -18446744073709551615\n",
       "line 4"},
      {base + "path -0 0\n", "line 5"},
      {base + "path 0 -0\n", "line 5"},
      {base + "path 0 0\ncorrset 0 +0\n", "line 6"},
  };
  for (const auto& c : cases) {
    std::stringstream buffer(c.text);
    try {
      read_system(buffer);
      FAIL() << "expected tomo::Error for " << c.text;
    } catch (const Error& e) {
      EXPECT_NE(e.message().find(c.line), std::string::npos) << e.message();
    }
  }
}

TEST(Serialize, IgnoresCommentsAndBlankLines) {
  std::stringstream buffer(
      "# a comment\n\ntomo-topology v1\nnode 0 a # trailing\nnode 1 b\n"
      "link 0 0 1\npath 0 0\n");
  const MeasuredSystem ms = read_system(buffer);
  EXPECT_EQ(ms.graph.node_count(), 2u);
  EXPECT_EQ(ms.paths.size(), 1u);
}

}  // namespace
}  // namespace tomo::graph

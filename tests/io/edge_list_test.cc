#include "io/edge_list.h"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/graph_checks.h"
#include "testing/temp_path.h"
#include "testing/test_graphs.h"

namespace oca {
namespace {

TEST(ReadEdgeListTest, ParsesSnapFormat) {
  std::istringstream in(
      "# Directed graph (each unordered pair of nodes is saved once)\n"
      "# Nodes: 4 Edges: 3\n"
      "10\t20\n"
      "20\t30\n"
      "10 40\n");
  auto loaded = ReadEdgeListStream(in).value();
  EXPECT_EQ(loaded.graph.num_nodes(), 4u);
  EXPECT_EQ(loaded.graph.num_edges(), 3u);
  // Dense ids assigned in first-seen order: 10->0, 20->1, 30->2, 40->3.
  EXPECT_EQ(loaded.original_ids, (std::vector<uint64_t>{10, 20, 30, 40}));
  EXPECT_TRUE(loaded.graph.HasEdge(0, 1));
  EXPECT_TRUE(loaded.graph.HasEdge(1, 2));
  EXPECT_TRUE(loaded.graph.HasEdge(0, 3));
}

TEST(ReadEdgeListTest, SkipsCommentsAndBlankLines) {
  std::istringstream in("% comment\n\n# another\n1 2\n");
  auto loaded = ReadEdgeListStream(in).value();
  EXPECT_EQ(loaded.graph.num_edges(), 1u);
}

TEST(ReadEdgeListTest, DedupsAndDropsSelfLoops) {
  std::istringstream in("1 2\n2 1\n1 1\n1 2\n");
  auto loaded = ReadEdgeListStream(in).value();
  EXPECT_EQ(loaded.graph.num_nodes(), 2u);
  EXPECT_EQ(loaded.graph.num_edges(), 1u);
}

TEST(ReadEdgeListTest, MalformedLineErrors) {
  std::istringstream in("1 2\nnot an edge\n");
  auto result = ReadEdgeListStream(in);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(ReadEdgeListTest, MissingFileErrors) {
  auto result = ReadEdgeListFile("/nonexistent/path/graph.txt");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST(EdgeListRoundTripTest, WriteThenReadPreservesStructure) {
  Graph g = testing::KarateClub();
  std::stringstream buffer;
  ASSERT_TRUE(WriteEdgeListStream(g, buffer).ok());
  auto loaded = ReadEdgeListStream(buffer).value();
  EXPECT_EQ(loaded.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.graph.num_edges(), g.num_edges());
  EXPECT_TRUE(ValidateGraph(loaded.graph).ok());
  // Dense ids are assigned in first-seen order, so the reload is the same
  // graph up to the recorded relabeling: map back and compare edge sets.
  std::vector<Edge> mapped;
  loaded.graph.ForEachEdge([&](NodeId u, NodeId v) {
    NodeId a = static_cast<NodeId>(loaded.original_ids[u]);
    NodeId b = static_cast<NodeId>(loaded.original_ids[v]);
    mapped.emplace_back(std::min(a, b), std::max(a, b));
  });
  std::sort(mapped.begin(), mapped.end());
  EXPECT_EQ(mapped, g.Edges());
}

TEST(EdgeListRoundTripTest, FileRoundTrip) {
  Graph g = testing::TwoCliquesOverlap();
  std::string path = testing::TestTempPath("edge_list_test.txt");
  ASSERT_TRUE(WriteEdgeListFile(g, path).ok());
  auto loaded = ReadEdgeListFile(path).value();
  EXPECT_EQ(loaded.graph.Edges(), g.Edges());
  std::remove(path.c_str());
}

TEST(ReadEdgeListTest, EmptyInputYieldsEmptyGraph) {
  std::istringstream in("# only comments\n");
  auto loaded = ReadEdgeListStream(in).value();
  EXPECT_EQ(loaded.graph.num_nodes(), 0u);
  EXPECT_EQ(loaded.graph.num_edges(), 0u);
}

}  // namespace
}  // namespace oca

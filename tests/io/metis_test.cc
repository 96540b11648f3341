#include "io/metis.h"

#include <gtest/gtest.h>

#include <sstream>

#include "gen/erdos_renyi.h"
#include "graph/graph_builder.h"
#include "graph/graph_checks.h"
#include "testing/temp_path.h"
#include "testing/test_graphs.h"
#include "util/random.h"

namespace oca {
namespace {

TEST(MetisReadTest, ParsesTriangle) {
  std::istringstream in(
      "% a triangle\n"
      "3 3\n"
      "2 3\n"
      "1 3\n"
      "1 2\n");
  Graph g = ReadMetisStream(in).value();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(0, 2));
}

TEST(MetisReadTest, IsolatedNodesHaveEmptyLines) {
  std::istringstream in("3 1\n2\n1\n\n");
  Graph g = ReadMetisStream(in).value();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Degree(2), 0u);
}

TEST(MetisReadTest, RejectsVertexSizesFormat) {
  std::istringstream in("2 1 100\n1 2\n1 1\n");
  EXPECT_TRUE(ReadMetisStream(in).status().IsUnimplemented());
}

TEST(MetisReadTest, RejectsUnknownFmtDigits) {
  std::istringstream in("2 1 21\n2\n1\n");
  EXPECT_TRUE(ReadMetisStream(in).status().IsIOError());
}

TEST(MetisReadTest, ParsesEdgeWeightsFmt001) {
  std::istringstream in(
      "3 3 1\n"
      "2 2.5 3 1.25\n"
      "1 2.5 3 4\n"
      "1 1.25 2 4\n");
  Graph g = ReadMetisStream(in).value();
  ASSERT_TRUE(g.is_weighted());
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.EdgeWeight(0, 1), 2.5);
  EXPECT_EQ(g.EdgeWeight(0, 2), 1.25);
  EXPECT_EQ(g.EdgeWeight(1, 2), 4.0);
}

TEST(MetisReadTest, SkipsVertexWeightsFmt011) {
  // fmt 011: each line leads with one vertex weight (ncon defaults to
  // 1), then (neighbor, weight) pairs. Vertex weights are discarded.
  std::istringstream in(
      "2 1 11\n"
      "7 2 3.5\n"
      "9 1 3.5\n");
  Graph g = ReadMetisStream(in).value();
  ASSERT_TRUE(g.is_weighted());
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.EdgeWeight(0, 1), 3.5);
}

TEST(MetisReadTest, SkipsVertexWeightsFmt010) {
  // Vertex weights only: the graph itself stays unweighted.
  std::istringstream in(
      "2 1 10\n"
      "7 2\n"
      "9 1\n");
  Graph g = ReadMetisStream(in).value();
  EXPECT_FALSE(g.is_weighted());
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(MetisReadTest, HonorsNconHeaderField) {
  std::istringstream in(
      "2 1 11 2\n"
      "7 8 2 3.5\n"
      "9 1 1 3.5\n");
  Graph g = ReadMetisStream(in).value();
  EXPECT_EQ(g.EdgeWeight(0, 1), 3.5);
}

TEST(MetisReadTest, RejectsMissingEdgeWeight) {
  std::istringstream in("2 1 1\n2\n1 5\n");
  EXPECT_TRUE(ReadMetisStream(in).status().IsIOError());
}

TEST(MetisReadTest, RejectsNonPositiveEdgeWeight) {
  std::istringstream in("2 1 1\n2 0\n1 0\n");
  EXPECT_TRUE(ReadMetisStream(in).status().IsIOError());
}

TEST(MetisReadTest, RejectsOutOfRangeNeighbor) {
  std::istringstream in("2 1\n5\n1\n");
  EXPECT_TRUE(ReadMetisStream(in).status().IsIOError());
}

TEST(MetisReadTest, RejectsZeroNeighborId) {
  std::istringstream in("2 1\n0\n1\n");  // METIS ids are 1-based
  EXPECT_TRUE(ReadMetisStream(in).status().IsIOError());
}

TEST(MetisReadTest, RejectsTruncatedFile) {
  std::istringstream in("3 2\n2\n");
  EXPECT_TRUE(ReadMetisStream(in).status().IsIOError());
}

TEST(MetisReadTest, RejectsEdgeCountMismatch) {
  std::istringstream in("3 5\n2 3\n1 3\n1 2\n");
  auto result = ReadMetisStream(in);
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_NE(result.status().message().find("claims"), std::string::npos);
}

TEST(MetisReadTest, RejectsGarbageTokens) {
  std::istringstream in("2 1\n2 x\n1\n");
  EXPECT_TRUE(ReadMetisStream(in).status().IsIOError());
}

TEST(MetisReadTest, MissingHeaderErrors) {
  std::istringstream in("% only comments\n");
  EXPECT_TRUE(ReadMetisStream(in).status().IsIOError());
}

TEST(MetisRoundTripTest, KarateClub) {
  Graph g = testing::KarateClub();
  std::stringstream buffer;
  ASSERT_TRUE(WriteMetisStream(g, buffer).ok());
  Graph reloaded = ReadMetisStream(buffer).value();
  EXPECT_EQ(reloaded.Edges(), g.Edges());
  EXPECT_TRUE(ValidateGraph(reloaded).ok());
}

TEST(MetisRoundTripTest, RandomGraphs) {
  Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g = ErdosRenyi(120, 0.05, &rng).value();
    std::stringstream buffer;
    ASSERT_TRUE(WriteMetisStream(g, buffer).ok());
    EXPECT_EQ(ReadMetisStream(buffer).value().Edges(), g.Edges());
  }
}

TEST(MetisRoundTripTest, FileRoundTrip) {
  Graph g = testing::TwoCliquesOverlap();
  std::string path = testing::TestTempPath("metis_test.graph");
  ASSERT_TRUE(WriteMetisFile(g, path).ok());
  EXPECT_EQ(ReadMetisFile(path).value().Edges(), g.Edges());
  std::remove(path.c_str());
}

TEST(MetisReadTest, MissingFileErrors) {
  EXPECT_TRUE(ReadMetisFile("/no/such/file.graph").status().IsIOError());
}

TEST(MetisRoundTripTest, WeightedGraphBitExact) {
  // Weighted write emits fmt 001 with %.17g weights, so text round-trip
  // reproduces every double bit for bit.
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 0.1);  // not representable exactly — the
  builder.AddEdge(1, 2, 1.0 / 3.0);  // round-trip must carry full bits
  builder.AddEdge(2, 3, 2.5e-7);
  builder.AddEdge(0, 3, 1e17);
  Graph g = builder.Build().value();
  std::stringstream buffer;
  ASSERT_TRUE(WriteMetisStream(g, buffer).ok());
  Graph reloaded = ReadMetisStream(buffer).value();
  ASSERT_TRUE(reloaded.is_weighted());
  EXPECT_EQ(reloaded.Edges(), g.Edges());
  ASSERT_EQ(reloaded.weight_array().size(), g.weight_array().size());
  for (size_t i = 0; i < g.weight_array().size(); ++i) {
    EXPECT_EQ(reloaded.weight_array()[i], g.weight_array()[i]) << i;
  }
  EXPECT_TRUE(ValidateGraph(reloaded).ok());
}

TEST(MetisRoundTripTest, UnweightedOutputUnchangedByWeightSupport) {
  // The unweighted writer must stay byte-identical to the historical
  // form: no fmt column, no weights.
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  Graph g = builder.Build().value();
  std::stringstream buffer;
  ASSERT_TRUE(WriteMetisStream(g, buffer).ok());
  EXPECT_EQ(buffer.str(), "% generated by oca\n3 2\n2\n1 3\n2\n");
}

}  // namespace
}  // namespace oca

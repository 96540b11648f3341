// The chunked streaming builder's contract is byte-level: for any edge
// stream, BuildGraphFileFromEdges must emit EXACTLY the file that
// WriteGraphBinaryFile(GraphBuilder::Build()) would — independent of
// edge order, duplicates, self-loops, and (critically) the gather
// buffer size. These tests force pathological chunkings (buffers so
// small every node is its own chunk, single nodes whose incidence
// exceeds the whole budget) and diff the files byte for byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_stream_build.h"
#include "graph/mmap_graph.h"
#include "io/graph_serialize.h"
#include "testing/temp_path.h"
#include "util/random.h"

namespace oca {
namespace {

std::vector<char> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

std::string TempPath(const std::string& name) {
  return testing::TestTempPath("stream_build_" + name);
}

/// The reference file: in-memory Build + serialize.
std::string WriteReference(size_t num_nodes, const std::vector<Edge>& edges,
                           const std::string& tag) {
  GraphBuilder builder(num_nodes);
  for (const auto& [u, v] : edges) {
    if (u != v) builder.AddEdge(u, v);
  }
  Graph g = builder.Build().value();
  const std::string path = TempPath(tag + "_ref.ocag");
  EXPECT_TRUE(WriteGraphBinaryFile(g, path).ok());
  return path;
}

TEST(StreamingBuildTest, ByteIdenticalToInMemoryBuild) {
  Rng rng(7);
  Graph g = ErdosRenyi(200, 0.05, &rng).value();
  std::vector<Edge> edges = g.Edges();
  const std::string ref = WriteReference(200, edges, "er");

  // Scramble edge order and orientation: output must not care.
  Rng shuffle_rng(8);
  shuffle_rng.Shuffle(&edges);
  for (size_t i = 0; i < edges.size(); i += 2) {
    std::swap(edges[i].first, edges[i].second);
  }

  for (size_t buffer_bytes : {size_t{1}, size_t{64}, size_t{4096},
                              size_t{8u << 20}}) {
    SCOPED_TRACE("buffer_bytes=" + std::to_string(buffer_bytes));
    VectorEdgeSource source(edges);
    StreamBuildOptions options;
    options.buffer_bytes = buffer_bytes;
    const std::string out =
        TempPath("er_buf" + std::to_string(buffer_bytes) + ".ocag");
    auto stats = BuildGraphFileFromEdges(200, source, out, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->num_edges, g.num_edges());
    EXPECT_EQ(FileBytes(ref), FileBytes(out));
    if (buffer_bytes == 1) {
      // Degenerate budget: many chunks, many source passes, same bytes.
      EXPECT_GT(stats->num_chunks, 1u);
      EXPECT_EQ(stats->source_passes, stats->num_chunks + 1);
    }
  }
}

TEST(StreamingBuildTest, DropsSelfLoopsAndDuplicates) {
  // Edge stream with self-loops, exact duplicates, and reversed
  // duplicates; the clean multiset is a triangle plus a pendant.
  const std::vector<Edge> dirty = {
      {0, 1}, {1, 0}, {1, 2}, {2, 2}, {2, 0}, {0, 2}, {0, 2}, {3, 1}, {1, 1},
  };
  const std::string ref = WriteReference(4, dirty, "dirty");

  VectorEdgeSource source(dirty);
  const std::string out = TempPath("dirty.ocag");
  auto stats = BuildGraphFileFromEdges(4, source, out);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->num_edges, 4u);
  EXPECT_EQ(stats->self_loops_dropped, 2u);
  EXPECT_EQ(stats->duplicates_dropped, 3u);
  EXPECT_EQ(FileBytes(ref), FileBytes(out));

  Graph g = ReadGraphBinaryFile(out).value();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 3));
  EXPECT_FALSE(g.HasEdge(0, 3));
}

TEST(StreamingBuildTest, HubLargerThanBufferGetsOwnChunk) {
  // Node 0 touches every other node; with a tiny buffer its incidence
  // alone exceeds the budget, exercising the one-node-chunk path.
  const size_t n = 500;
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) edges.push_back({0, v});
  const std::string ref = WriteReference(n, edges, "hub");

  VectorEdgeSource source(edges);
  StreamBuildOptions options;
  options.buffer_bytes = 8;  // far below the hub's 499-entry incidence
  const std::string out = TempPath("hub.ocag");
  auto stats = BuildGraphFileFromEdges(n, source, out, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(FileBytes(ref), FileBytes(out));
}

TEST(StreamingBuildTest, BuilderBuildToFileMatchesBuild) {
  Rng rng(21);
  Graph expected = ErdosRenyi(150, 0.08, &rng).value();

  GraphBuilder builder(150);
  for (const auto& [u, v] : expected.Edges()) builder.AddEdge(u, v);
  const std::string direct = TempPath("b2f_direct.ocag");
  EXPECT_TRUE(WriteGraphBinaryFile(expected, direct).ok());

  const std::string streamed = TempPath("b2f_streamed.ocag");
  auto stats = builder.BuildToFile(streamed);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(FileBytes(direct), FileBytes(streamed));

  // And the streamed file round-trips through the mmap backend.
  Graph mapped = OpenMmapGraph(streamed).value();
  EXPECT_EQ(mapped.num_edges(), expected.num_edges());
  EXPECT_EQ(mapped.Edges(), expected.Edges());
}

TEST(StreamingBuildTest, RejectsOutOfRangeEndpointsAndZeroNodes) {
  const std::vector<Edge> edges = {{0, 1}, {1, 9}};
  {
    VectorEdgeSource source(edges);
    auto stats = BuildGraphFileFromEdges(5, source, TempPath("oob.ocag"));
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  }
  {
    VectorEdgeSource source(edges);
    auto stats = BuildGraphFileFromEdges(0, source, TempPath("zero.ocag"));
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Unwritable path surfaces as a typed I/O error, not a crash.
    VectorEdgeSource source(edges);
    auto stats = BuildGraphFileFromEdges(
        10, source, "/nonexistent_dir/oca_stream.ocag");
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kIOError);
  }
}

}  // namespace
}  // namespace oca

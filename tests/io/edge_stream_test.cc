// Weighted binary edge files: the 16-byte (u32, u32, f64) record
// format round-trips exactly, canonicalizes orientation, rejects junk,
// and drives the chunked builder to the same .ocag v2 file the
// in-memory path writes.

#include "io/edge_stream.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/mmap_graph.h"
#include "io/graph_serialize.h"
#include "testing/temp_path.h"

namespace oca {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TestTempPath("edge_stream_" + name);
}

TEST(WeightedEdgeFileTest, RoundTripsRecordsExactly) {
  const std::string path = TempPath("roundtrip.wedges");
  WeightedEdgeFileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append(0, 1, 2.5).ok());
  ASSERT_TRUE(writer.Append(3, 2, 0.125).ok());  // canonicalizes to (2, 3)
  ASSERT_TRUE(writer.Append(1, 2, 1e17).ok());
  EXPECT_EQ(writer.edges_written(), 3u);
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(WeightedEdgeFileEdgeCount(path).value(), 3u);

  WeightedEdgeFileSource source;
  ASSERT_TRUE(source.Open(path).ok());
  EXPECT_EQ(source.num_edges(), 3u);
  std::vector<Edge> edges(8);
  std::vector<double> weights(8);
  size_t got = source.ReadBatchWeighted(edges, weights).value();
  ASSERT_EQ(got, 3u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(weights[0], 2.5);
  EXPECT_EQ(edges[1], (Edge{2, 3}));
  EXPECT_EQ(weights[1], 0.125);
  EXPECT_EQ(edges[2], (Edge{1, 2}));
  EXPECT_EQ(weights[2], 1e17);
  EXPECT_EQ(source.ReadBatchWeighted(edges, weights).value(), 0u);
  // Rewind replays the identical sequence.
  ASSERT_TRUE(source.Rewind().ok());
  EXPECT_EQ(source.ReadBatchWeighted(edges, weights).value(), 3u);
  EXPECT_EQ(weights[0], 2.5);
}

TEST(WeightedEdgeFileTest, UnweightedReadDropsWeights) {
  const std::string path = TempPath("drop.wedges");
  WeightedEdgeFileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append(0, 1, 2.5).ok());
  ASSERT_TRUE(writer.Close().ok());
  WeightedEdgeFileSource source;
  ASSERT_TRUE(source.Open(path).ok());
  EXPECT_TRUE(source.has_weights());
  std::vector<Edge> edges(4);
  ASSERT_EQ(source.ReadBatch(edges).value(), 1u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
}

TEST(WeightedEdgeFileTest, WriterRejectsSelfLoopsAndBadWeights) {
  const std::string path = TempPath("reject.wedges");
  WeightedEdgeFileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  EXPECT_FALSE(writer.Append(5, 5, 1.0).ok());
  EXPECT_FALSE(writer.Append(0, 1, 0.0).ok());
  EXPECT_FALSE(writer.Append(0, 1, -2.0).ok());
  EXPECT_FALSE(writer.Append(0, 1, std::nan("")).ok());
  EXPECT_EQ(writer.edges_written(), 0u);
  ASSERT_TRUE(writer.Close().ok());
}

TEST(WeightedEdgeFileTest, MisalignedFileIsTypedError) {
  const std::string path = TempPath("misaligned.wedges");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write("0123456789", 10);  // not a multiple of 16
  out.close();
  EXPECT_TRUE(WeightedEdgeFileEdgeCount(path).status().IsIOError());
  WeightedEdgeFileSource source;
  EXPECT_TRUE(source.Open(path).IsIOError());
}

TEST(WeightedEdgeFileTest, FeedsChunkedBuilderToSameV2File) {
  // Edge file -> chunked builder must equal in-memory builder ->
  // writer, byte for byte: the weighted out-of-core pipeline has no
  // observable seam.
  const NodeId n = 40;
  const std::string edge_path = TempPath("pipeline.wedges");
  WeightedEdgeFileWriter writer;
  ASSERT_TRUE(writer.Open(edge_path).ok());
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; v += u + 2) {
      const double w = 0.5 + 0.25 * ((u * 7 + v) % 11);
      ASSERT_TRUE(writer.Append(u, v, w).ok());
      builder.AddEdge(u, v, w);
    }
  }
  ASSERT_TRUE(writer.Close().ok());
  Graph reference = builder.Build().value();
  const std::string ref_path = TempPath("pipeline_ref.ocag");
  ASSERT_TRUE(WriteGraphBinaryFile(reference, ref_path).ok());

  WeightedEdgeFileSource source;
  ASSERT_TRUE(source.Open(edge_path).ok());
  const std::string out_path = TempPath("pipeline_streamed.ocag");
  StreamBuildOptions options;
  options.buffer_bytes = 512;  // force chunking
  auto stats = BuildGraphFileFromEdges(n, source, out_path, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  auto read_file = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(read_file(out_path), read_file(ref_path));
  auto mapped = OpenMmapGraph(out_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->is_weighted());
}

}  // namespace
}  // namespace oca

// The .ocag v2 weight section, pinned from both directions:
//
//  * weighted graphs serialize as version 2 with the f64 weight section
//    appended after the neighbor array, and every producer — the
//    in-memory writer and the streaming chunked builder, at any buffer
//    size — emits the IDENTICAL bytes;
//  * unweighted graphs keep writing version 1 files, so pre-weights
//    readers and digests are untouched;
//  * the mmap backend aliases the weight section bit-for-bit; and
//  * a corrupted weight section (truncated, oversized, NaN, negative)
//    is a typed error on open, never a silently wrong graph.
//
// Each corruption case starts from a VALID v2 file and breaks exactly
// one thing, mmap_graph_error_test style.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gen/erdos_renyi.h"
#include "gen/weight_assign.h"
#include "graph/graph.h"
#include "graph/graph_stream_build.h"
#include "graph/mmap_graph.h"
#include "io/graph_format.h"
#include "io/graph_serialize.h"
#include "testing/temp_path.h"
#include "util/random.h"

namespace oca {
namespace {

std::vector<char> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

class GraphV2FormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(31);
    Graph base = ErdosRenyi(60, 0.1, &rng).value();
    graph_ = AssignWeights(base, {}).value();
    path_ = testing::TestTempPath("v2_base.ocag");
    ASSERT_TRUE(WriteGraphBinaryFile(graph_, path_).ok());
    bytes_ = FileBytes(path_);
  }

  Result<Graph> OpenBytes(const std::vector<char>& bytes,
                          const std::string& tag) {
    const std::string path = testing::TestTempPath("v2_" + tag + ".ocag");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    return OpenMmapGraph(path);
  }

  size_t WeightsStart() const {
    return GraphFileWeightsStart(graph_.num_nodes(), 2 * graph_.num_edges());
  }

  Graph graph_;
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(GraphV2FormatTest, WeightedFileIsVersion2WithExactSize) {
  uint32_t version = 0;
  std::memcpy(&version, bytes_.data() + 4, sizeof(version));
  EXPECT_EQ(version, kGraphFileVersionWeighted);
  EXPECT_EQ(bytes_.size(),
            GraphFileBytes(graph_.num_nodes(), 2 * graph_.num_edges(),
                           /*weighted=*/true));
}

TEST_F(GraphV2FormatTest, UnweightedGraphsStillWriteVersion1) {
  Rng rng(31);
  Graph base = ErdosRenyi(60, 0.1, &rng).value();
  const std::string path = testing::TestTempPath("v2_unweighted.ocag");
  ASSERT_TRUE(WriteGraphBinaryFile(base, path).ok());
  std::vector<char> bytes = FileBytes(path);
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  EXPECT_EQ(version, kGraphFileVersion);
  EXPECT_EQ(bytes.size(),
            GraphFileBytes(base.num_nodes(), 2 * base.num_edges()));
  // The v1 prefix of the weighted file differs from the unweighted file
  // ONLY in the version field — weights never perturb the CSR bytes.
  ASSERT_EQ(bytes.size(), WeightsStart());
  EXPECT_EQ(0, std::memcmp(bytes.data() + 8, bytes_.data() + 8,
                           bytes.size() - 8));
}

TEST_F(GraphV2FormatTest, MmapAliasesWeightSectionBitForBit) {
  auto mapped = OpenMmapGraph(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped->is_weighted());
  ASSERT_EQ(mapped->weight_array().size(), graph_.weight_array().size());
  EXPECT_EQ(0, std::memcmp(mapped->weight_array().data(),
                           graph_.weight_array().data(),
                           graph_.weight_array().size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(bytes_.data() + WeightsStart(),
                           graph_.weight_array().data(),
                           graph_.weight_array().size() * sizeof(double)));
}

TEST_F(GraphV2FormatTest, StreamingBuilderMatchesWriterByteForByte) {
  // The chunked two-pass builder must produce the identical v2 file,
  // including at a pathologically small buffer that forces many chunks
  // (and thus the .wtmp weight-staging path).
  std::vector<Edge> edges;
  std::vector<double> weights;
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    for (size_t i = 0; i < graph_.Neighbors(u).size(); ++i) {
      const NodeId v = graph_.Neighbors(u)[i];
      if (u < v) {
        edges.push_back({u, v});
        weights.push_back(graph_.Weights(u)[i]);
      }
    }
  }
  for (size_t buffer : {size_t{1} << 20, size_t{256}}) {
    SCOPED_TRACE("buffer=" + std::to_string(buffer));
    VectorWeightedEdgeSource source(edges, weights);
    StreamBuildOptions options;
    options.buffer_bytes = buffer;
    const std::string path =
        testing::TestTempPath("v2_stream_" + std::to_string(buffer) + ".ocag");
    auto stats =
        BuildGraphFileFromEdges(graph_.num_nodes(), source, path, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->num_edges, graph_.num_edges());
    EXPECT_EQ(FileBytes(path), bytes_);
  }
}

TEST_F(GraphV2FormatTest, TruncatedWeightSection) {
  std::vector<char> t(bytes_.begin(), bytes_.end() - 8);
  auto r = OpenBytes(t, "truncated_weights");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(GraphV2FormatTest, Version2WithoutWeightSection) {
  // A v1-sized file whose header claims v2: the size cross-check must
  // reject it before the reader dereferences a weight section that is
  // not there.
  std::vector<char> t(bytes_.begin(),
                      bytes_.begin() + static_cast<ptrdiff_t>(WeightsStart()));
  auto r = OpenBytes(t, "v2_no_weights");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(GraphV2FormatTest, TrailingGarbageAfterWeights) {
  std::vector<char> t = bytes_;
  t.insert(t.end(), 16, '\0');
  auto r = OpenBytes(t, "trailing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(GraphV2FormatTest, CorruptWeightsCaughtByValidation) {
  // NaN and non-positive weights pass every frame check (the section is
  // present and sized right); the deep ValidateGraph pass must reject.
  const double bad_values[] = {std::nan(""), -1.0, 0.0};
  int idx = 0;
  for (double bad : bad_values) {
    SCOPED_TRACE("value=" + std::to_string(bad));
    std::vector<char> t = bytes_;
    std::memcpy(t.data() + WeightsStart(), &bad, sizeof(double));
    auto r = OpenBytes(t, "bad_weight_" + std::to_string(idx++));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(GraphV2FormatTest, AsymmetricWeightCaughtByValidation) {
  // Corrupt ONE direction of one edge: the mirror check in
  // ValidateGraph must notice the asymmetry.
  std::vector<char> t = bytes_;
  double w = 0.0;
  std::memcpy(&w, t.data() + WeightsStart(), sizeof(double));
  w *= 1.5;
  std::memcpy(t.data() + WeightsStart(), &w, sizeof(double));
  auto r = OpenBytes(t, "asymmetric_weight");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphV2FormatTest, ReadGraphBinaryRoundTripsWeights) {
  auto read = ReadGraphBinaryFile(path_);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_TRUE(read->is_weighted());
  EXPECT_FALSE(read->is_mapped());
  ASSERT_EQ(read->weight_array().size(), graph_.weight_array().size());
  EXPECT_EQ(0, std::memcmp(read->weight_array().data(),
                           graph_.weight_array().data(),
                           graph_.weight_array().size() * sizeof(double)));
}

}  // namespace
}  // namespace oca

// Error discipline of the mmap graph backend: every way a graph file
// can be wrong — missing, truncated, wrong magic, wrong version, a
// header whose sizes overrun or underrun the actual file, malformed CSR
// offsets, out-of-range neighbors — must come back as a typed
// Result<Graph> error (kIOError for byte-level trust failures,
// kInvalidArgument for semantic ones), never a crash or a silently
// wrong graph. Each case starts from a VALID serialized file and
// corrupts exactly one thing, so a failure pinpoints the check.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "graph/mmap_graph.h"
#include "io/graph_format.h"
#include "io/graph_serialize.h"
#include "testing/temp_path.h"
#include "util/random.h"

namespace oca {
namespace {

class MmapGraphErrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(31);
    graph_ = ErdosRenyi(60, 0.1, &rng).value();
    path_ = testing::TestTempPath("mmap_error_base.ocag");
    ASSERT_TRUE(WriteGraphBinaryFile(graph_, path_).ok());
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_EQ(bytes_.size(),
              GraphFileBytes(graph_.num_nodes(), 2 * graph_.num_edges()));
  }

  /// Writes `bytes` to a fresh file and returns OpenMmapGraph's result.
  Result<Graph> OpenBytes(const std::vector<char>& bytes,
                          const std::string& tag) {
    const std::string path =
        testing::TestTempPath("mmap_error_" + tag + ".ocag");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    return OpenMmapGraph(path);
  }

  static void Patch(std::vector<char>* bytes, size_t pos, uint64_t value,
                    size_t width) {
    ASSERT_LE(pos + width, bytes->size());
    std::memcpy(bytes->data() + pos, &value, width);
  }

  Graph graph_;
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(MmapGraphErrorTest, ValidFileRoundTripsEdgeSet) {
  auto mapped = OpenMmapGraph(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->is_mapped());
  EXPECT_EQ(mapped->num_nodes(), graph_.num_nodes());
  EXPECT_EQ(mapped->Edges(), graph_.Edges());
}

TEST_F(MmapGraphErrorTest, MissingFile) {
  auto r = OpenMmapGraph(testing::TestTempPath("no_such_file.ocag"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(MmapGraphErrorTest, EmptyAndSubHeaderFiles) {
  for (size_t keep : {size_t{0}, size_t{4}, kGraphFileHeaderBytes - 1}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    std::vector<char> t(bytes_.begin(),
                        bytes_.begin() + static_cast<ptrdiff_t>(keep));
    auto r = OpenBytes(t, "subheader" + std::to_string(keep));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
    EXPECT_NE(r.status().message().find("truncated"), std::string::npos);
  }
}

TEST_F(MmapGraphErrorTest, TruncatedBody) {
  // Header intact, arrays cut short: the size cross-check must reject
  // before any neighbor is dereferenced.
  std::vector<char> t(bytes_.begin(), bytes_.end() - 8);
  auto r = OpenBytes(t, "truncated_body");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(MmapGraphErrorTest, TrailingGarbage) {
  std::vector<char> t = bytes_;
  t.insert(t.end(), 16, '\0');
  auto r = OpenBytes(t, "trailing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(MmapGraphErrorTest, BadMagic) {
  std::vector<char> t = bytes_;
  t[0] = 'X';
  auto r = OpenBytes(t, "magic");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("magic"), std::string::npos);
}

TEST_F(MmapGraphErrorTest, BadVersion) {
  std::vector<char> t = bytes_;
  Patch(&t, 4, kGraphFileVersion + 7, sizeof(uint32_t));
  auto r = OpenBytes(t, "version");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

TEST_F(MmapGraphErrorTest, ZeroNodes) {
  std::vector<char> t = bytes_;
  Patch(&t, 8, 0, sizeof(uint64_t));
  auto r = OpenBytes(t, "zero_nodes");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MmapGraphErrorTest, OddNeighborCount) {
  std::vector<char> t = bytes_;
  Patch(&t, 16, 2 * graph_.num_edges() + 1, sizeof(uint64_t));
  auto r = OpenBytes(t, "odd_arr");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MmapGraphErrorTest, OffsetTableOverrun) {
  // Header claims far more nodes than the file can hold offsets for —
  // including the near-overflow value that would wrap GraphFileBytes.
  for (uint64_t n : {uint64_t{1} << 40, UINT64_MAX / 8}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<char> t = bytes_;
    Patch(&t, 8, n, sizeof(uint64_t));
    auto r = OpenBytes(t, "overrun");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  }
}

TEST_F(MmapGraphErrorTest, NeighborArrayOverrun) {
  std::vector<char> t = bytes_;
  Patch(&t, 16, uint64_t{1} << 40, sizeof(uint64_t));
  auto r = OpenBytes(t, "arr_overrun");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(MmapGraphErrorTest, NonMonotoneOffsets) {
  std::vector<char> t = bytes_;
  // offsets[1] and offsets[2] live right after offsets[0]; swap a big
  // value into offsets[1] so offsets[1] > offsets[2].
  Patch(&t, kGraphFileOffsetsStart + 8, 2 * graph_.num_edges(),
        sizeof(uint64_t));
  auto r = OpenBytes(t, "non_monotone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MmapGraphErrorTest, FirstOffsetNotZero) {
  std::vector<char> t = bytes_;
  Patch(&t, kGraphFileOffsetsStart, 1, sizeof(uint64_t));
  auto r = OpenBytes(t, "first_offset");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MmapGraphErrorTest, NeighborOutOfRangeCaughtByValidation) {
  // Corrupt one neighbor entry to an id >= n. The frame checks cannot
  // see it; the deep ValidateGraph pass (on by default) must.
  std::vector<char> t = bytes_;
  const size_t nbr_start = GraphFileNeighborsStart(graph_.num_nodes());
  Patch(&t, nbr_start, graph_.num_nodes() + 100, sizeof(NodeId));
  auto r = OpenBytes(t, "bad_neighbor");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // With validation explicitly off, the frame still opens — the caller
  // opted out of the deep pass.
  MmapGraphOptions lax;
  lax.validate = false;
  const std::string path =
      testing::TestTempPath("mmap_error_bad_neighbor.ocag");
  auto lax_r = OpenMmapGraph(path, lax);
  EXPECT_TRUE(lax_r.ok()) << lax_r.status().ToString();
}

}  // namespace
}  // namespace oca

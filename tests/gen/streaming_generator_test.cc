// Property tests for the out-of-core generator pipeline. The contract
// under test is the one gen/streaming_generator.h states: the
// `.degrees` artifact is the REQUESTED sequence and the final graph
// must realize it EXACTLY (Havel–Hakimi is exact; swaps preserve
// degrees); the edge set is simple (no loops, no multi-edges) after any
// number of swaps; and the whole pipeline is a pure function of
// (options, seed) — same seed, byte-identical artifacts.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gen/streaming_generator.h"
#include "graph/graph.h"
#include "graph/graph_checks.h"
#include "graph/mmap_graph.h"
#include "io/edge_stream.h"
#include "testing/temp_path.h"

namespace oca {
namespace {

std::vector<char> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

std::vector<uint32_t> ReadDegreeFile(const std::string& path) {
  const std::vector<char> bytes = FileBytes(path);
  EXPECT_EQ(bytes.size() % sizeof(uint32_t), 0u);
  std::vector<uint32_t> degrees(bytes.size() / sizeof(uint32_t));
  std::memcpy(degrees.data(), bytes.data(), bytes.size());
  return degrees;
}

std::string Prefix(const std::string& tag) {
  return testing::TestTempPath("streamgen_" + tag);
}

StreamingGeneratorOptions SmallOptions(uint64_t seed) {
  StreamingGeneratorOptions options;
  options.num_nodes = 400;
  options.gamma = 2.5;
  options.min_degree = 2;
  options.max_degree = 40;
  options.swaps_per_edge = 2.0;
  options.seed = seed;
  options.buffer_bytes = 1u << 12;  // small enough to force chunking
  options.max_swap_delta = 64;      // force snapshot-rebuild rounds too
  return options;
}

TEST(StreamingGeneratorTest, RealizedDegreesMatchRequestedExactly) {
  auto result = GenerateGraphToFile(SmallOptions(5), Prefix("degrees"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::vector<uint32_t> requested =
      ReadDegreeFile(result->degree_path);
  ASSERT_EQ(requested.size(), result->num_nodes);
  // Requested sequence is descending (node 0 is the biggest hub).
  for (size_t i = 0; i + 1 < requested.size(); ++i) {
    ASSERT_GE(requested[i], requested[i + 1]) << "at " << i;
  }

  Graph g = OpenMmapGraph(result->graph_path).value();
  ASSERT_EQ(g.num_nodes(), result->num_nodes);
  ASSERT_EQ(g.num_edges(), result->num_edges);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(g.Degree(v), requested[v]) << "node " << v;
  }
}

TEST(StreamingGeneratorTest, GraphIsSimpleAfterSwaps) {
  auto result = GenerateGraphToFile(SmallOptions(6), Prefix("simple"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The swap stage must have actually run (otherwise this test proves
  // nothing about swap correctness), including snapshot rebuilds.
  EXPECT_GT(result->swap_attempts, 0u);
  EXPECT_GT(result->swaps_applied, 0u);
  EXPECT_GT(result->swap_rounds, 0u);

  // No self-loops or duplicates can have reached the final build: the
  // builder counts exactly what it dropped.
  EXPECT_EQ(result->final_build.self_loops_dropped, 0u);
  EXPECT_EQ(result->final_build.duplicates_dropped, 0u);

  // And the graph itself is structurally valid (sorted unique neighbor
  // lists, no loops, symmetric CSR).
  Graph g = OpenMmapGraph(result->graph_path).value();
  EXPECT_TRUE(ValidateGraph(g).ok());

  // The edge file agrees with the graph edge-for-edge.
  EXPECT_EQ(EdgeFileEdgeCount(result->edge_path).value(), g.num_edges());
}

TEST(StreamingGeneratorTest, FixedSeedIsByteIdenticalAcrossRuns) {
  auto a = GenerateGraphToFile(SmallOptions(7), Prefix("det_a"));
  auto b = GenerateGraphToFile(SmallOptions(7), Prefix("det_b"));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(FileBytes(a->degree_path), FileBytes(b->degree_path));
  EXPECT_EQ(FileBytes(a->edge_path), FileBytes(b->edge_path));
  EXPECT_EQ(FileBytes(a->graph_path), FileBytes(b->graph_path));
  EXPECT_EQ(a->swaps_applied, b->swaps_applied);

  // Different seed, different graph (sanity that the seed is live).
  auto c = GenerateGraphToFile(SmallOptions(8), Prefix("det_c"));
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_NE(FileBytes(a->graph_path), FileBytes(c->graph_path));
}

TEST(StreamingGeneratorTest, SwapStageCanBeDisabled) {
  StreamingGeneratorOptions options = SmallOptions(9);
  options.swaps_per_edge = 0.0;
  auto result = GenerateGraphToFile(options, Prefix("noswap"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->swap_attempts, 0u);
  EXPECT_EQ(result->swaps_applied, 0u);
  Graph g = OpenMmapGraph(result->graph_path).value();
  EXPECT_TRUE(ValidateGraph(g).ok());
  const std::vector<uint32_t> requested =
      ReadDegreeFile(result->degree_path);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(g.Degree(v), requested[v]);
  }
}

TEST(StreamingGeneratorTest, NonGraphicalSamplesAreRepaired) {
  // Heavy-tailed sampling on a tiny node set with an uncapped max
  // degree frequently draws non-graphical sequences; across a fixed
  // seed sweep at least one run must exercise the Erdős–Gallai repair
  // path, and every repaired run must still realize its (repaired)
  // degree file exactly.
  StreamingGeneratorOptions options;
  options.num_nodes = 24;
  options.gamma = 1.2;
  options.min_degree = 1;
  options.max_degree = 23;
  options.swaps_per_edge = 1.0;
  uint64_t repaired_runs = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    options.seed = seed;
    auto result = GenerateGraphToFile(
        options, Prefix("repair_s" + std::to_string(seed)));
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                             << result.status().ToString();
    if (result->degree_repairs > 0) ++repaired_runs;
    Graph g = OpenMmapGraph(result->graph_path).value();
    EXPECT_TRUE(ValidateGraph(g).ok()) << "seed " << seed;
    const std::vector<uint32_t> requested =
        ReadDegreeFile(result->degree_path);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(g.Degree(v), requested[v])
          << "seed " << seed << " node " << v;
    }
  }
  EXPECT_GT(repaired_runs, 0u)
      << "no seed in the sweep hit the repair path; widen the sweep";
}

TEST(StreamingGeneratorTest, DropIntermediatesKeepsOnlyGraphFile) {
  StreamingGeneratorOptions options = SmallOptions(10);
  options.keep_intermediates = false;
  auto result = GenerateGraphToFile(options, Prefix("cleanup"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(OpenMmapGraph(result->graph_path).ok());
  std::ifstream deg(result->degree_path);
  std::ifstream edg(result->edge_path);
  EXPECT_FALSE(deg.good());
  EXPECT_FALSE(edg.good());
}

TEST(StreamingGeneratorTest, RejectsBadOptions) {
  StreamingGeneratorOptions options = SmallOptions(1);
  options.num_nodes = 0;
  EXPECT_EQ(GenerateGraphToFile(options, Prefix("bad_n")).status().code(),
            StatusCode::kInvalidArgument);

  options = SmallOptions(1);
  options.gamma = 0.0;
  EXPECT_EQ(GenerateGraphToFile(options, Prefix("bad_gamma")).status().code(),
            StatusCode::kInvalidArgument);

  options = SmallOptions(1);
  options.min_degree = 0;
  EXPECT_EQ(GenerateGraphToFile(options, Prefix("bad_min")).status().code(),
            StatusCode::kInvalidArgument);

  // min_degree above max_degree is clamped, not an error: still valid.
  options = SmallOptions(1);
  options.min_degree = 50;
  options.max_degree = 10;
  EXPECT_TRUE(GenerateGraphToFile(options, Prefix("clamped")).ok());
}

}  // namespace
}  // namespace oca

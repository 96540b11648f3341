// Differential backend-equivalence suite: the memory-mapped Graph
// backend must be OBSERVATION-EQUIVALENT to the in-memory one on every
// code path — not approximately, bit-for-bit. For a seeded matrix of
// graphs (Erdős–Rényi, Barabási–Albert, nested planted partition, and
// a ragged-degree adversarial graph mixing a full hub, chains, a
// clique, and isolated nodes), the same bytes must come out of:
//   * the raw CSR views (offsets + neighbors),
//   * the SIMD CSR mat-vec, across both kernels (portable / AVX2),
//   * k-core peeling and induced-subgraph extraction,
//   * full OCA covers, and
//   * RecursiveHierarchy::Digest() across kernels x thread counts.
// The backends share zero storage (one owns heap vectors, the other
// aliases a read-only mmap), so agreement here is the proof that the
// backend choice is a pure memory/IO trade with no observable effect.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/oca.h"
#include "core/recursive_hierarchy.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "gen/nested_partition.h"
#include "gen/weight_assign.h"
#include "graph/graph_builder.h"
#include "graph/k_core.h"
#include "graph/mmap_graph.h"
#include "graph/subgraph.h"
#include "io/graph_serialize.h"
#include "spectral/csr_matvec.h"
#include "testing/temp_path.h"
#include "util/random.h"

namespace oca {
namespace {

struct BackendPair {
  std::string name;
  Graph memory;
  Graph mapped;
};

/// Serializes `g` and reopens it through the mmap backend.
Graph MmapCopy(const Graph& g, const std::string& tag) {
  const std::string path =
      testing::TestTempPath("backend_equiv_" + tag + ".ocag");
  EXPECT_TRUE(WriteGraphBinaryFile(g, path).ok());
  auto mapped = OpenMmapGraph(path);
  EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
  return std::move(mapped).value();
}

/// Ragged-degree adversarial graph: node 0 adjacent to everything (one
/// maximal row), a long path (degree-2 rows), a dense clique (uniform
/// mid-size rows), and trailing isolated-but-for-the-hub nodes — the
/// row-length mix that shakes out tail handling in the unrolled kernel.
Graph RaggedAdversarial() {
  const NodeId n = 160;
  GraphBuilder builder(n);
  for (NodeId v = 1; v < n; ++v) builder.AddEdge(0, v);
  for (NodeId v = 1; v + 1 < 60; ++v) builder.AddEdge(v, v + 1);
  for (NodeId u = 100; u < 124; ++u) {
    for (NodeId v = u + 1; v < 124; ++v) builder.AddEdge(u, v);
  }
  return builder.Build().value();
}

std::vector<BackendPair> BackendMatrix() {
  std::vector<BackendPair> pairs;
  {
    Rng rng(11);
    Graph g = ErdosRenyi(300, 0.04, &rng).value();
    pairs.push_back({"er", g, MmapCopy(g, "er")});
  }
  {
    Rng rng(12);
    Graph g = BarabasiAlbert(300, 3, &rng).value();
    pairs.push_back({"ba", g, MmapCopy(g, "ba")});
  }
  {
    NestedPartitionOptions gen;
    gen.num_supers = 3;
    gen.subs_per_super = 3;
    gen.nodes_per_sub = 16;
    gen.seed = 13;
    Graph g = GenerateNestedPartition(gen).value().graph;
    pairs.push_back({"nested", g, MmapCopy(g, "nested")});
  }
  {
    Graph g = RaggedAdversarial();
    pairs.push_back({"ragged", g, MmapCopy(g, "ragged")});
  }
  return pairs;
}

/// Kernels to sweep: portable always, AVX2 when compiled in and the CPU
/// has it (CI runs the suite under OCA_SIMD=avx2 separately as well).
std::vector<CsrKernelKind> KernelMatrix() {
  std::vector<CsrKernelKind> kernels = {CsrKernelKind::kPortable};
  if (CsrKernelAvailable(CsrKernelKind::kAvx2)) {
    kernels.push_back(CsrKernelKind::kAvx2);
  }
  return kernels;
}

class KernelRestorer {
 public:
  KernelRestorer() : was_auto_(CsrKernelIsAuto()), saved_(ActiveCsrKernel()) {}
  ~KernelRestorer() {
    if (was_auto_) {
      SetCsrKernelAuto();
    } else {
      SetCsrKernel(saved_);
    }
  }

 private:
  bool was_auto_;
  CsrKernelKind saved_;
};

TEST(BackendEquivalenceTest, CsrViewsAreIdentical) {
  for (const auto& pair : BackendMatrix()) {
    SCOPED_TRACE(pair.name);
    ASSERT_TRUE(pair.mapped.is_mapped());
    EXPECT_FALSE(pair.memory.is_mapped());
    ASSERT_EQ(pair.memory.num_nodes(), pair.mapped.num_nodes());
    ASSERT_EQ(pair.memory.num_edges(), pair.mapped.num_edges());
    EXPECT_TRUE(
        std::ranges::equal(pair.memory.offsets(), pair.mapped.offsets()));
    EXPECT_TRUE(std::ranges::equal(pair.memory.neighbor_array(),
                                   pair.mapped.neighbor_array()));
    EXPECT_EQ(pair.memory.MaxDegree(), pair.mapped.MaxDegree());
    for (NodeId v = 0; v < pair.memory.num_nodes(); ++v) {
      ASSERT_TRUE(std::ranges::equal(pair.memory.Neighbors(v),
                                     pair.mapped.Neighbors(v)))
          << "node " << v;
    }
  }
}

TEST(BackendEquivalenceTest, MatVecBitIdenticalAcrossKernels) {
  KernelRestorer restore;
  for (const auto& pair : BackendMatrix()) {
    const size_t n = pair.memory.num_nodes();
    Rng rng(99);
    std::vector<double> x(n);
    for (auto& xi : x) xi = rng.NextDouble() * 2.0 - 1.0;
    for (CsrKernelKind kernel : KernelMatrix()) {
      SCOPED_TRACE(pair.name + std::string("/") + CsrKernelName(kernel));
      ASSERT_EQ(SetCsrKernel(kernel), kernel);
      std::vector<double> y_mem(n, 0.0), y_map(n, 0.0);
      AdjacencyMatVecRows(pair.memory, 0, n, x.data(), y_mem.data());
      AdjacencyMatVecRows(pair.mapped, 0, n, x.data(), y_map.data());
      EXPECT_EQ(0, std::memcmp(y_mem.data(), y_map.data(),
                               n * sizeof(double)));
      // Fused variant, partial row range: same block the Lanczos alpha
      // step consumes.
      std::vector<double> f_mem(n, 0.0), f_map(n, 0.0);
      const double alpha_mem =
          AdjacencyMatVecRowsFused(pair.memory, n / 3, n, x.data(),
                                   f_mem.data());
      const double alpha_map =
          AdjacencyMatVecRowsFused(pair.mapped, n / 3, n, x.data(),
                                   f_map.data());
      EXPECT_EQ(alpha_mem, alpha_map);
      EXPECT_EQ(0, std::memcmp(f_mem.data(), f_map.data(),
                               n * sizeof(double)));
    }
  }
}

TEST(BackendEquivalenceTest, KCoreAndSubgraphIdentical) {
  for (const auto& pair : BackendMatrix()) {
    SCOPED_TRACE(pair.name);
    EXPECT_EQ(CoreNumbers(pair.memory), CoreNumbers(pair.mapped));
    EXPECT_EQ(Degeneracy(pair.memory), Degeneracy(pair.mapped));
    EXPECT_EQ(DegeneracyOrder(pair.memory), DegeneracyOrder(pair.mapped));
    // Induced subgraph straight off the mapped backend view.
    std::vector<NodeId> nodes;
    for (NodeId v = 0; v < pair.memory.num_nodes(); v += 3) {
      nodes.push_back(v);
    }
    Subgraph sub_mem = InducedSubgraph(pair.memory, nodes).value();
    Subgraph sub_map = InducedSubgraph(pair.mapped, nodes).value();
    EXPECT_EQ(sub_mem.to_original, sub_map.to_original);
    EXPECT_TRUE(std::ranges::equal(sub_mem.graph.offsets(),
                                   sub_map.graph.offsets()));
    EXPECT_TRUE(std::ranges::equal(sub_mem.graph.neighbor_array(),
                                   sub_map.graph.neighbor_array()));
    EXPECT_FALSE(sub_map.graph.is_mapped());  // extraction materializes
  }
}

TEST(BackendEquivalenceTest, OcaCoversIdentical) {
  for (const auto& pair : BackendMatrix()) {
    SCOPED_TRACE(pair.name);
    OcaOptions options;
    options.seed = 5;
    options.halting.max_seeds = 200;
    options.halting.target_coverage = 0.95;
    auto mem = RunOca(pair.memory, options);
    auto map = RunOca(pair.mapped, options);
    ASSERT_EQ(mem.ok(), map.ok());
    if (!mem.ok()) continue;  // edgeless adversarial corners
    EXPECT_EQ(mem->cover, map->cover);
    EXPECT_EQ(mem->stats.coupling_constant, map->stats.coupling_constant);
    EXPECT_EQ(mem->stats.lambda_min, map->stats.lambda_min);
  }
}

TEST(BackendEquivalenceTest, HierarchyDigestAcrossKernelsAndThreads) {
  KernelRestorer restore;
  NestedPartitionOptions gen;
  gen.num_supers = 4;
  gen.subs_per_super = 3;
  gen.nodes_per_sub = 18;
  gen.p_sub = 0.85;
  gen.p_super = 0.15;
  gen.p_out = 0.06;
  gen.seed = 17;
  Graph memory = GenerateNestedPartition(gen).value().graph;
  Graph mapped = MmapCopy(memory, "digest");

  RecursiveHierarchyOptions options;
  options.base.seed = 5;
  options.base.halting.max_seeds = 500;
  options.base.halting.target_coverage = 0.97;
  options.base.halting.stagnation_window = 120;

  ASSERT_EQ(SetCsrKernel(CsrKernelKind::kPortable), CsrKernelKind::kPortable);
  options.num_threads = 0;
  const uint64_t reference =
      BuildRecursiveHierarchy(memory, options).value().Digest();

  for (CsrKernelKind kernel : KernelMatrix()) {
    ASSERT_EQ(SetCsrKernel(kernel), kernel);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(std::string(CsrKernelName(kernel)) + "/threads=" +
                   std::to_string(threads));
      options.num_threads = threads;
      auto mem_tree = BuildRecursiveHierarchy(memory, options).value();
      auto map_tree = BuildRecursiveHierarchy(mapped, options).value();
      EXPECT_EQ(mem_tree.Digest(), reference);
      EXPECT_EQ(map_tree.Digest(), reference)
          << "mmap backend digest diverged";
    }
  }
}

// ---------------------------------------------------------------------------
// Weighted axis: the same matrix, with hash-assigned edge weights. The
// weights land in the .ocag v2 section on disk; the mapped backend must
// alias them bit-for-bit and every weighted consumer must agree with
// the in-memory backend.

std::vector<BackendPair> WeightedBackendMatrix() {
  WeightAssignOptions wopt;  // deterministic hash weights in [0.5, 2)
  std::vector<BackendPair> pairs;
  for (auto& pair : BackendMatrix()) {
    Graph weighted = AssignWeights(pair.memory, wopt).value();
    Graph mapped = MmapCopy(weighted, pair.name + "_w");
    pairs.push_back({pair.name + "_w", std::move(weighted),
                     std::move(mapped)});
  }
  return pairs;
}

TEST(BackendEquivalenceTest, WeightedCsrViewsAreIdentical) {
  for (const auto& pair : WeightedBackendMatrix()) {
    SCOPED_TRACE(pair.name);
    ASSERT_TRUE(pair.memory.is_weighted());
    ASSERT_TRUE(pair.mapped.is_weighted());
    ASSERT_TRUE(pair.mapped.is_mapped());
    ASSERT_EQ(pair.memory.weight_array().size(),
              pair.mapped.weight_array().size());
    EXPECT_EQ(0, std::memcmp(pair.memory.weight_array().data(),
                             pair.mapped.weight_array().data(),
                             pair.memory.weight_array().size() *
                                 sizeof(double)));
    EXPECT_EQ(pair.memory.TotalWeight(), pair.mapped.TotalWeight());
    EXPECT_EQ(pair.memory.MaxWeightedDegree(),
              pair.mapped.MaxWeightedDegree());
    for (NodeId v = 0; v < pair.memory.num_nodes(); v += 7) {
      ASSERT_TRUE(
          std::ranges::equal(pair.memory.Weights(v), pair.mapped.Weights(v)))
          << "node " << v;
      EXPECT_EQ(pair.memory.WeightedDegree(v), pair.mapped.WeightedDegree(v));
    }
  }
}

TEST(BackendEquivalenceTest, WeightedMatVecBitIdenticalAcrossKernels) {
  KernelRestorer restore;
  for (const auto& pair : WeightedBackendMatrix()) {
    const size_t n = pair.memory.num_nodes();
    Rng rng(99);
    std::vector<double> x(n);
    for (auto& xi : x) xi = rng.NextDouble() * 2.0 - 1.0;
    // The portable kernel on the in-memory backend is the reference;
    // every kernel x backend combination must reproduce its bits (the
    // weighted bodies keep the same fixed combine order).
    ASSERT_EQ(SetCsrKernel(CsrKernelKind::kPortable),
              CsrKernelKind::kPortable);
    std::vector<double> reference(n, 0.0);
    AdjacencyMatVecRows(pair.memory, 0, n, x.data(), reference.data());
    for (CsrKernelKind kernel : KernelMatrix()) {
      SCOPED_TRACE(pair.name + std::string("/") + CsrKernelName(kernel));
      ASSERT_EQ(SetCsrKernel(kernel), kernel);
      for (const Graph* g : {&pair.memory, &pair.mapped}) {
        std::vector<double> y(n, 0.0);
        AdjacencyMatVecRows(*g, 0, n, x.data(), y.data());
        EXPECT_EQ(0, std::memcmp(reference.data(), y.data(),
                                 n * sizeof(double)));
      }
      std::vector<double> f_mem(n, 0.0), f_map(n, 0.0);
      const double alpha_mem = AdjacencyMatVecRowsFused(
          pair.memory, n / 3, n, x.data(), f_mem.data());
      const double alpha_map = AdjacencyMatVecRowsFused(
          pair.mapped, n / 3, n, x.data(), f_map.data());
      EXPECT_EQ(alpha_mem, alpha_map);
      EXPECT_EQ(0, std::memcmp(f_mem.data(), f_map.data(),
                               n * sizeof(double)));
    }
  }
}

TEST(BackendEquivalenceTest, WeightedOcaCoversIdentical) {
  for (const auto& pair : WeightedBackendMatrix()) {
    SCOPED_TRACE(pair.name);
    OcaOptions options;
    options.seed = 5;
    options.halting.max_seeds = 200;
    options.halting.target_coverage = 0.95;
    options.search.fitness.use_weights = true;
    auto mem = RunOca(pair.memory, options);
    auto map = RunOca(pair.mapped, options);
    ASSERT_EQ(mem.ok(), map.ok());
    if (!mem.ok()) continue;
    EXPECT_EQ(mem->cover, map->cover);
    EXPECT_EQ(mem->stats.coupling_constant, map->stats.coupling_constant);
    EXPECT_EQ(mem->stats.lambda_min, map->stats.lambda_min);
  }
}

TEST(BackendEquivalenceTest, WeightedHierarchyDigestAcrossKernelsAndThreads) {
  KernelRestorer restore;
  NestedPartitionOptions gen;
  gen.num_supers = 4;
  gen.subs_per_super = 3;
  gen.nodes_per_sub = 18;
  gen.p_sub = 0.85;
  gen.p_super = 0.15;
  gen.p_out = 0.06;
  gen.seed = 17;
  Graph memory =
      AssignWeights(GenerateNestedPartition(gen).value().graph, {}).value();
  Graph mapped = MmapCopy(memory, "digest_w");

  RecursiveHierarchyOptions options;
  options.base.seed = 5;
  options.base.halting.max_seeds = 500;
  options.base.halting.target_coverage = 0.97;
  options.base.halting.stagnation_window = 120;
  options.base.search.fitness.use_weights = true;

  ASSERT_EQ(SetCsrKernel(CsrKernelKind::kPortable), CsrKernelKind::kPortable);
  options.num_threads = 0;
  const uint64_t reference =
      BuildRecursiveHierarchy(memory, options).value().Digest();

  for (CsrKernelKind kernel : KernelMatrix()) {
    ASSERT_EQ(SetCsrKernel(kernel), kernel);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(std::string(CsrKernelName(kernel)) + "/threads=" +
                   std::to_string(threads));
      options.num_threads = threads;
      auto mem_tree = BuildRecursiveHierarchy(memory, options).value();
      auto map_tree = BuildRecursiveHierarchy(mapped, options).value();
      EXPECT_EQ(mem_tree.Digest(), reference);
      EXPECT_EQ(map_tree.Digest(), reference)
          << "weighted mmap backend digest diverged";
    }
  }
}

}  // namespace
}  // namespace oca

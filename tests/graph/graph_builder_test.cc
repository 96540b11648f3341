#include "graph/graph_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/graph_checks.h"

namespace oca {
namespace {

TEST(GraphBuilderTest, BuildsEmptyGraph) {
  GraphBuilder builder(4);
  Graph g = builder.Build().value();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilderTest, DropsSelfLoops) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 0);
  builder.AddEdge(1, 1);
  builder.AddEdge(0, 1);
  Graph g = builder.Build().value();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(ValidateGraph(g).ok());
}

TEST(GraphBuilderTest, DedupsParallelEdges) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);  // same edge, reversed
  builder.AddEdge(0, 1);  // repeated
  Graph g = builder.Build().value();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(GraphBuilderTest, SymmetrizesOrientation) {
  GraphBuilder builder(4);
  builder.AddEdge(3, 1);  // reversed orientation
  Graph g = builder.Build().value();
  EXPECT_TRUE(g.HasEdge(1, 3));
  EXPECT_TRUE(g.HasEdge(3, 1));
}

TEST(GraphBuilderTest, OutOfRangeEndpointFailsBuild) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 5);
  auto result = builder.Build();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(GraphBuilderTest, EnsureNodesGrowsOnly) {
  GraphBuilder builder(3);
  builder.EnsureNodes(10);
  EXPECT_EQ(builder.num_nodes(), 10u);
  builder.EnsureNodes(5);
  EXPECT_EQ(builder.num_nodes(), 10u);
}

TEST(GraphBuilderTest, BuildIsRepeatableAndNonDestructive) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  Graph g1 = builder.Build().value();
  builder.AddEdge(1, 2);
  Graph g2 = builder.Build().value();
  EXPECT_EQ(g1.num_edges(), 1u);
  EXPECT_EQ(g2.num_edges(), 2u);
}

TEST(GraphBuilderTest, ResetClearsEdgesKeepsNodes) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.Reset();
  EXPECT_EQ(builder.num_pending_edges(), 0u);
  Graph g = builder.Build().value();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilderTest, AddEdgesBulk) {
  GraphBuilder builder(5);
  builder.AddEdges({{0, 1}, {2, 3}, {3, 4}, {1, 1}});
  Graph g = builder.Build().value();
  EXPECT_EQ(g.num_edges(), 3u);  // self-loop dropped
}

TEST(GraphBuilderTest, LargeRandomGraphValidates) {
  GraphBuilder builder(500);
  // Deterministic pseudo-random edge pattern.
  uint64_t x = 12345;
  for (int i = 0; i < 3000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    NodeId u = static_cast<NodeId>((x >> 32) % 500);
    NodeId v = static_cast<NodeId>((x >> 12) % 500);
    builder.AddEdge(u, v);
  }
  Graph g = builder.Build().value();
  EXPECT_TRUE(ValidateGraph(g).ok());
}

// The unweighted CSR arrays as a global sort + unique of the canonical
// edge list followed by a scatter and a per-row sort would give them.
std::pair<std::vector<uint64_t>, std::vector<NodeId>> GlobalSortCsr(
    size_t n, std::vector<Edge> edges) {
  for (auto& [u, v] : edges) {
    if (u > v) std::swap(u, v);
  }
  std::erase_if(edges, [](const Edge& e) { return e.first == e.second; });
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<uint64_t> offsets(n + 1, 0);
  for (const auto& [u, v] : edges) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];
  std::vector<NodeId> neighbors(2 * edges.size());
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    neighbors[cursor[u]++] = v;
    neighbors[cursor[v]++] = u;
  }
  for (size_t i = 0; i < n; ++i) {
    std::sort(neighbors.begin() + static_cast<ptrdiff_t>(offsets[i]),
              neighbors.begin() + static_cast<ptrdiff_t>(offsets[i + 1]));
  }
  return {std::move(offsets), std::move(neighbors)};
}

TEST(GraphBuilderTest, UnweightedBuildMatchesGlobalSortReference) {
  // Multigraphs in random insertion order and orientation, with parallel
  // edges, self-loops and isolated nodes; dense and sparse.
  for (const auto& [n, m] : {std::pair<size_t, int>{40, 600},
                             {500, 3000},
                             {2000, 1500}}) {
    uint64_t x = n * 7919 + static_cast<uint64_t>(m);
    std::vector<Edge> edges;
    for (int i = 0; i < m; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      const Edge e{static_cast<NodeId>((x >> 32) % n),
                   static_cast<NodeId>((x >> 12) % n)};
      edges.push_back(e);
      if (i % 7 == 0) edges.push_back(e);
      if (i % 11 == 0) edges.emplace_back(e.second, e.first);
    }
    GraphBuilder builder(n);
    builder.AddEdges(edges);
    const Graph g = builder.Build().value();
    const auto [offsets, neighbors] = GlobalSortCsr(n, edges);
    EXPECT_TRUE(std::ranges::equal(g.offsets(), offsets)) << "n=" << n;
    EXPECT_TRUE(std::ranges::equal(g.neighbor_array(), neighbors))
        << "n=" << n;
    EXPECT_EQ(g.neighbor_array().size(), neighbors.size());
  }
}

// ---------------------------------------------------------------------
// Cache-aware reordering (NodeOrdering / ReorderGraph).
// ---------------------------------------------------------------------

/// The undirected edge set of `g`, expressed in ORIGINAL ids, as a
/// sorted list of (min, max) pairs — the reordering-invariant identity
/// of the graph.
std::vector<std::pair<NodeId, NodeId>> OriginalEdgeSet(const Graph& g) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      NodeId a = g.OriginalId(u);
      NodeId b = g.OriginalId(v);
      if (a < b) edges.emplace_back(a, b);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

Graph ReorderTestGraph() {
  // A star glued to a path plus a stray edge: distinct degrees, so the
  // degree-sort order is fully determined.
  GraphBuilder builder(8);
  builder.AddEdges({{0, 1}, {0, 2}, {0, 3}, {0, 4}, {4, 5}, {5, 6}, {6, 7},
                    {2, 3}});
  return builder.Build().value();
}

TEST(NodeOrderingTest, OriginalOrderingIsIdentity) {
  Graph g = ReorderTestGraph();
  std::vector<NodeId> order = ComputeNodeOrdering(g, NodeOrdering::kOriginal);
  for (NodeId i = 0; i < g.num_nodes(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_FALSE(g.is_reordered());
  EXPECT_EQ(g.OriginalId(3), 3u);
}

TEST(NodeOrderingTest, DegreeSortIsDescendingWithIdTiebreak) {
  Graph g = ReorderTestGraph();
  std::vector<NodeId> order =
      ComputeNodeOrdering(g, NodeOrdering::kDegreeSort);
  ASSERT_EQ(order.size(), g.num_nodes());
  for (size_t i = 1; i < order.size(); ++i) {
    size_t prev = g.Degree(order[i - 1]);
    size_t cur = g.Degree(order[i]);
    EXPECT_TRUE(prev > cur || (prev == cur && order[i - 1] < order[i]))
        << "position " << i;
  }
  // Node 0 (degree 4, the hub) must come first.
  EXPECT_EQ(order[0], 0u);
}

TEST(NodeOrderingTest, ReorderPreservesTheEdgeSet) {
  Graph g = ReorderTestGraph();
  std::vector<std::pair<NodeId, NodeId>> original = OriginalEdgeSet(g);
  for (NodeOrdering ordering :
       {NodeOrdering::kDegreeSort, NodeOrdering::kRcm}) {
    Graph r = ReorderGraph(g, ComputeNodeOrdering(g, ordering)).value();
    EXPECT_TRUE(r.is_reordered());
    EXPECT_TRUE(ValidateGraph(r).ok());
    EXPECT_EQ(r.num_edges(), g.num_edges());
    EXPECT_EQ(OriginalEdgeSet(r), original)
        << "ordering " << static_cast<int>(ordering);
  }
}

TEST(NodeOrderingTest, RcmShrinksBandwidthOnAPath) {
  // A path labeled so neighbors are far apart: 0-4-1-5-2-6-3.
  GraphBuilder builder(7);
  builder.AddEdges({{0, 4}, {4, 1}, {1, 5}, {5, 2}, {2, 6}, {6, 3}});
  Graph g = builder.Build().value();
  auto bandwidth = [](const Graph& graph) {
    size_t bw = 0;
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      for (NodeId v : graph.Neighbors(u)) {
        bw = std::max(bw, static_cast<size_t>(u > v ? u - v : v - u));
      }
    }
    return bw;
  };
  Graph r = ReorderGraph(g, ComputeNodeOrdering(g, NodeOrdering::kRcm))
                .value();
  // RCM relabels a path into consecutive ids: bandwidth exactly 1.
  EXPECT_EQ(bandwidth(r), 1u);
  EXPECT_LT(bandwidth(r), bandwidth(g));
}

TEST(NodeOrderingTest, DoubleReorderComposesToTrueOriginalIds) {
  Graph g = ReorderTestGraph();
  Graph once =
      ReorderGraph(g, ComputeNodeOrdering(g, NodeOrdering::kDegreeSort))
          .value();
  Graph twice =
      ReorderGraph(once, ComputeNodeOrdering(once, NodeOrdering::kRcm))
          .value();
  // OriginalId on the twice-reordered graph must refer to g's ids, not
  // to the intermediate labeling: the composed edge set matches.
  EXPECT_EQ(OriginalEdgeSet(twice), OriginalEdgeSet(g));
  std::vector<bool> seen(g.num_nodes(), false);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    NodeId orig = twice.OriginalId(v);
    ASSERT_LT(orig, g.num_nodes());
    EXPECT_FALSE(seen[orig]) << "duplicate original id " << orig;
    seen[orig] = true;
  }
}

TEST(NodeOrderingTest, ReorderGraphRejectsNonPermutations) {
  Graph g = ReorderTestGraph();
  std::vector<NodeId> too_short = {0, 1, 2};
  EXPECT_FALSE(ReorderGraph(g, too_short).ok());
  std::vector<NodeId> duplicate = {0, 1, 2, 3, 4, 5, 6, 6};
  EXPECT_FALSE(ReorderGraph(g, duplicate).ok());
  std::vector<NodeId> out_of_range = {0, 1, 2, 3, 4, 5, 6, 8};
  EXPECT_FALSE(ReorderGraph(g, out_of_range).ok());
}

TEST(NodeOrderingTest, BuildWithOrderingMatchesBuildPlusReorder) {
  GraphBuilder builder(8);
  builder.AddEdges({{0, 1}, {0, 2}, {0, 3}, {0, 4}, {4, 5}, {5, 6}, {6, 7},
                    {2, 3}});
  Graph direct = builder.Build(NodeOrdering::kDegreeSort).value();
  Graph staged = ReorderGraph(
                     builder.Build().value(),
                     ComputeNodeOrdering(builder.Build().value(),
                                         NodeOrdering::kDegreeSort))
                     .value();
  EXPECT_TRUE(std::ranges::equal(direct.offsets(), staged.offsets()));
  EXPECT_TRUE(
      std::ranges::equal(direct.neighbor_array(), staged.neighbor_array()));
  EXPECT_EQ(direct.original_ids(), staged.original_ids());
  // kOriginal is exactly Build().
  Graph plain = builder.Build(NodeOrdering::kOriginal).value();
  EXPECT_FALSE(plain.is_reordered());
  EXPECT_TRUE(std::ranges::equal(
      plain.neighbor_array(), builder.Build().value().neighbor_array()));
}

}  // namespace
}  // namespace oca

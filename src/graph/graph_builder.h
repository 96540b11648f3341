// Mutable edge accumulator that produces immutable CSR Graphs.
//
// Accepts edges in any order and orientation, drops self-loops, dedups
// parallel edges, symmetrizes, and emits a validated Graph. This mirrors
// the builder/immutable-array split used by Arrow.
//
// Weights: AddEdge(u, v, w) switches the builder into weighted mode
// (edges added without a weight count as 1.0, before or after the
// switch). Parallel weighted edges are collapsed by SUMMING their
// weights — the standard multigraph-to-weighted-graph reduction, and
// the one that makes directed edge lists (both orientations present)
// collapse deterministically. The sum is taken in (u, v, w)-sorted
// order, so the built graph is a pure function of the weighted edge
// MULTISET, independent of insertion order. A builder that never saw a
// weighted edge produces a weightless Graph whose CSR arrays are a pure
// function of the edge SET: each row is the sorted, distinct neighbours.

#ifndef OCA_GRAPH_GRAPH_BUILDER_H_
#define OCA_GRAPH_GRAPH_BUILDER_H_

#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_stream_build.h"
#include "util/result.h"

namespace oca {

/// Cache-aware node orderings for Build/ReorderGraph. Reordering
/// relabels nodes so the spectral mat-vec's random accesses x[nbr[e]]
/// land in a smaller, hotter span of x; the permutation is stored on
/// the produced Graph (Graph::OriginalId) so results can be reported
/// in original ids. Trade-offs:
///   * kDegreeSort: hubs first (descending degree, ties by original
///     id). High-degree nodes appear in most adjacency lists, so
///     giving them the smallest ids concentrates the bulk of the
///     gathers into the first cache lines of x. Cheap (one sort), the
///     default choice for power-law community graphs.
///   * kRcm: reverse Cuthill-McKee (BFS from a minimum-degree seed,
///     neighbors visited in ascending degree, order reversed).
///     Minimizes bandwidth — neighbors get nearby ids — which suits
///     mesh-like/low-degree-variance graphs better than degree-sort.
enum class NodeOrdering { kOriginal, kDegreeSort, kRcm };

/// The node ordering for `graph` under `ordering`: position i of the
/// returned vector holds the graph-local id that becomes new id i
/// (i.e. a new-id -> old-id permutation). Deterministic: all ties
/// break toward the smaller id.
std::vector<NodeId> ComputeNodeOrdering(const Graph& graph,
                                        NodeOrdering ordering);

/// Relabels `graph` so old node new_to_old[i] becomes node i, with
/// neighbor lists re-sorted, per-edge weights carried along, and the
/// original-id permutation composed onto the result (Graph::OriginalId
/// on the returned graph refers to `graph`'s ORIGINAL ids even when
/// `graph` was itself reordered). Errors when `new_to_old` is not a
/// permutation of [0, num_nodes).
Result<Graph> ReorderGraph(const Graph& graph,
                           std::span<const NodeId> new_to_old);

/// Accumulates edges for a graph on `num_nodes` nodes and finalizes into a
/// Graph. Reusable after `Reset`.
class GraphBuilder {
 public:
  explicit GraphBuilder(size_t num_nodes) : num_nodes_(num_nodes) {}

  size_t num_nodes() const { return num_nodes_; }

  /// Number of edge insertions so far (before dedup).
  size_t num_pending_edges() const { return edges_.size(); }

  /// True once any edge was added with an explicit weight.
  bool is_weighted() const { return !weights_.empty(); }

  /// Records an undirected edge {u, v}. Self-loops are silently dropped;
  /// duplicates are removed at Build time. Out-of-range endpoints make
  /// Build fail.
  void AddEdge(NodeId u, NodeId v);

  /// Records an undirected edge {u, v} with weight `w` and switches the
  /// builder into weighted mode (previously and subsequently unweighted
  /// insertions count as weight 1.0). Non-finite or non-positive
  /// weights make Build fail.
  void AddEdge(NodeId u, NodeId v, double w);

  /// Bulk insertion.
  void AddEdges(const std::vector<Edge>& edges);

  /// Bulk weighted insertion.
  void AddWeightedEdges(const std::vector<WeightedEdge>& edges);

  /// Grows the node count (never shrinks).
  void EnsureNodes(size_t num_nodes);

  /// Produces the immutable CSR graph. The builder remains valid and can
  /// keep accumulating (Build may be called repeatedly).
  Result<Graph> Build() const;

  /// Build plus an opt-in cache-aware reordering pass (see NodeOrdering
  /// above). `Build(NodeOrdering::kOriginal)` is exactly `Build()`.
  Result<Graph> Build(NodeOrdering ordering) const;

  /// Streams the accumulated edges into an OCAG graph file at `path`
  /// through the bounded-buffer chunked builder (graph_stream_build.h)
  /// instead of materializing the CSR arrays — the finalize step's peak
  /// heap is O(num_nodes) + the buffer, not O(edges). The file is
  /// byte-identical to WriteGraphBinaryFile(Build()) and opens with
  /// either backend (ReadGraphBinaryFile or OpenMmapGraph). Weighted
  /// builders emit format v2 with the weight section. Note the builder
  /// itself still holds the accumulated edge vector; for builds whose
  /// edge list must never touch RAM, feed BuildGraphFileFromEdges an
  /// EdgeSource that streams from disk (io/edge_stream.h).
  Result<StreamBuildStats> BuildToFile(
      const std::string& path, const StreamBuildOptions& options = {}) const;

  /// Clears accumulated edges (and weighted mode); keeps the node count.
  void Reset() {
    edges_.clear();
    weights_.clear();
  }

 private:
  size_t num_nodes_;
  std::vector<Edge> edges_;      // canonical u < v
  std::vector<double> weights_;  // parallel to edges_; empty = unweighted
};

/// Convenience one-shot construction from an edge list.
Result<Graph> BuildGraph(size_t num_nodes, const std::vector<Edge>& edges);

/// Convenience one-shot weighted construction.
Result<Graph> BuildWeightedGraph(size_t num_nodes,
                                 const std::vector<WeightedEdge>& edges);

}  // namespace oca

#endif  // OCA_GRAPH_GRAPH_BUILDER_H_

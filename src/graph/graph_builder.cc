#include "graph/graph_builder.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

namespace oca {

std::vector<NodeId> ComputeNodeOrdering(const Graph& graph,
                                        NodeOrdering ordering) {
  const size_t n = graph.num_nodes();
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  switch (ordering) {
    case NodeOrdering::kOriginal:
      break;
    case NodeOrdering::kDegreeSort:
      std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        const size_t da = graph.Degree(a), db = graph.Degree(b);
        return da != db ? da > db : a < b;
      });
      break;
    case NodeOrdering::kRcm: {
      // Cuthill-McKee: BFS each component from its minimum-degree node,
      // expanding neighbors in ascending degree, then reverse the whole
      // order. Seeds are taken from a (degree, id)-sorted candidate
      // list so component traversal order is deterministic.
      std::vector<NodeId> seeds = order;
      std::sort(seeds.begin(), seeds.end(), [&](NodeId a, NodeId b) {
        const size_t da = graph.Degree(a), db = graph.Degree(b);
        return da != db ? da < db : a < b;
      });
      std::vector<char> visited(n, 0);
      std::vector<NodeId> result;
      result.reserve(n);
      std::vector<NodeId> frontier;
      for (NodeId seed : seeds) {
        if (visited[seed]) continue;
        visited[seed] = 1;
        result.push_back(seed);
        for (size_t head = result.size() - 1; head < result.size(); ++head) {
          const NodeId u = result[head];
          frontier.clear();
          for (NodeId v : graph.Neighbors(u)) {
            if (!visited[v]) {
              visited[v] = 1;
              frontier.push_back(v);
            }
          }
          std::sort(frontier.begin(), frontier.end(),
                    [&](NodeId a, NodeId b) {
                      const size_t da = graph.Degree(a), db = graph.Degree(b);
                      return da != db ? da < db : a < b;
                    });
          result.insert(result.end(), frontier.begin(), frontier.end());
        }
      }
      std::reverse(result.begin(), result.end());
      order = std::move(result);
      break;
    }
  }
  return order;
}

Result<Graph> ReorderGraph(const Graph& graph,
                           std::span<const NodeId> new_to_old) {
  const size_t n = graph.num_nodes();
  if (new_to_old.size() != n) {
    return Status::InvalidArgument(
        "reorder permutation has " + std::to_string(new_to_old.size()) +
        " entries for a graph on " + std::to_string(n) + " nodes");
  }
  std::vector<NodeId> old_to_new(n, 0);
  std::vector<char> seen(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const NodeId old_id = new_to_old[i];
    if (old_id >= n || seen[old_id]) {
      return Status::InvalidArgument(
          "reorder permutation is not a permutation of [0, num_nodes)");
    }
    seen[old_id] = 1;
    old_to_new[old_id] = static_cast<NodeId>(i);
  }

  const bool weighted = graph.is_weighted();
  std::vector<uint64_t> offsets(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    offsets[i + 1] = offsets[i] + graph.Degree(new_to_old[i]);
  }
  std::vector<NodeId> neighbors(graph.neighbor_array().size());
  std::vector<double> weights(weighted ? neighbors.size() : 0);
  // Scratch of (relabeled neighbor, weight) pairs so the joint sort
  // keeps each weight glued to its edge; plain neighbor sort otherwise.
  std::vector<std::pair<NodeId, double>> row;
  for (size_t i = 0; i < n; ++i) {
    const NodeId old_id = new_to_old[i];
    uint64_t cursor = offsets[i];
    if (!weighted) {
      for (NodeId v : graph.Neighbors(old_id)) {
        neighbors[cursor++] = old_to_new[v];
      }
      std::sort(neighbors.begin() + static_cast<ptrdiff_t>(offsets[i]),
                neighbors.begin() + static_cast<ptrdiff_t>(cursor));
    } else {
      auto nbrs = graph.Neighbors(old_id);
      auto wts = graph.Weights(old_id);
      row.clear();
      for (size_t e = 0; e < nbrs.size(); ++e) {
        row.emplace_back(old_to_new[nbrs[e]], wts[e]);
      }
      std::sort(row.begin(), row.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& [nbr, w] : row) {
        neighbors[cursor] = nbr;
        weights[cursor] = w;
        ++cursor;
      }
    }
  }
  // Compose so OriginalId on the result refers to the true original
  // labeling even when `graph` was itself already reordered.
  std::vector<NodeId> original_ids(n);
  for (size_t i = 0; i < n; ++i) {
    original_ids[i] = graph.OriginalId(new_to_old[i]);
  }
  return Graph(std::move(offsets), std::move(neighbors), std::move(weights),
               std::move(original_ids));
}

void GraphBuilder::AddEdge(NodeId u, NodeId v) {
  if (u == v) return;  // simple graph: no self-loops
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
  if (!weights_.empty()) weights_.push_back(1.0);
}

void GraphBuilder::AddEdge(NodeId u, NodeId v, double w) {
  if (u == v) return;
  if (u > v) std::swap(u, v);
  if (weights_.empty()) {
    // First weighted insertion: backfill 1.0 for everything so far.
    weights_.assign(edges_.size(), 1.0);
  }
  edges_.emplace_back(u, v);
  weights_.push_back(w);
}

void GraphBuilder::AddEdges(const std::vector<Edge>& edges) {
  edges_.reserve(edges_.size() + edges.size());
  for (const auto& [u, v] : edges) AddEdge(u, v);
}

void GraphBuilder::AddWeightedEdges(const std::vector<WeightedEdge>& edges) {
  edges_.reserve(edges_.size() + edges.size());
  for (const auto& e : edges) AddEdge(e.u, e.v, e.weight);
}

void GraphBuilder::EnsureNodes(size_t num_nodes) {
  num_nodes_ = std::max(num_nodes_, num_nodes);
}

Result<Graph> GraphBuilder::Build() const {
  // Validate endpoints.
  for (const auto& [u, v] : edges_) {
    if (v >= num_nodes_) {  // v is the max endpoint (canonical order)
      return Status::InvalidArgument(
          "edge endpoint " + std::to_string(v) + " out of range for graph on " +
          std::to_string(num_nodes_) + " nodes");
    }
  }

  if (weights_.empty()) {
    // Unweighted: scatter both directions of every insertion (duplicates
    // included) into per-node rows, then sort, dedupe and compact each
    // row. A row ends up holding exactly the sorted distinct neighbours,
    // so the graph is the same pure function of the edge set as a global
    // sort + unique would give, without copying or sorting edges_.
    std::vector<uint64_t> offsets(num_nodes_ + 1, 0);
    for (const auto& [u, v] : edges_) {
      ++offsets[u + 1];
      ++offsets[v + 1];
    }
    for (size_t i = 1; i <= num_nodes_; ++i) {
      offsets[i] += offsets[i - 1];
    }
    std::vector<NodeId> neighbors(edges_.size() * 2);
    std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& [u, v] : edges_) {
      neighbors[cursor[u]++] = v;
      neighbors[cursor[v]++] = u;
    }
    // Rows only move toward the front, so compaction is in place; each
    // row's bounds are read before offsets[i] is overwritten.
    uint64_t kept = 0;
    for (size_t i = 0; i < num_nodes_; ++i) {
      const auto first = neighbors.begin() + static_cast<ptrdiff_t>(offsets[i]);
      const auto last =
          neighbors.begin() + static_cast<ptrdiff_t>(offsets[i + 1]);
      std::sort(first, last);
      const auto unique_end = std::unique(first, last);
      offsets[i] = kept;
      const auto dest = neighbors.begin() + static_cast<ptrdiff_t>(kept);
      if (dest != first) std::copy(first, unique_end, dest);
      kept += static_cast<uint64_t>(unique_end - first);
    }
    offsets[num_nodes_] = kept;
    if (kept < neighbors.size()) {
      neighbors.resize(kept);
      neighbors.shrink_to_fit();
    }
    return Graph(std::move(offsets), std::move(neighbors));
  }

  // Weighted: collapse parallel edges by summing their weights in
  // (u, v, w)-sorted order so the result is a pure function of the
  // weighted edge multiset (insertion order cannot move a bit).
  for (double w : weights_) {
    if (!std::isfinite(w) || !(w > 0.0)) {
      return Status::InvalidArgument(
          "edge weights must be finite and positive");
    }
  }
  std::vector<WeightedEdge> sorted;
  sorted.reserve(edges_.size());
  for (size_t i = 0; i < edges_.size(); ++i) {
    sorted.push_back(
        WeightedEdge{edges_[i].first, edges_[i].second, weights_[i]});
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              if (a.u != b.u) return a.u < b.u;
              if (a.v != b.v) return a.v < b.v;
              return a.weight < b.weight;
            });
  size_t out = 0;
  for (size_t i = 0; i < sorted.size();) {
    WeightedEdge merged = sorted[i];
    size_t j = i + 1;
    while (j < sorted.size() && sorted[j].u == merged.u &&
           sorted[j].v == merged.v) {
      merged.weight += sorted[j].weight;
      ++j;
    }
    sorted[out++] = merged;
    i = j;
  }
  sorted.resize(out);

  std::vector<uint64_t> offsets(num_nodes_ + 1, 0);
  for (const auto& e : sorted) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (size_t i = 1; i <= num_nodes_; ++i) {
    offsets[i] += offsets[i - 1];
  }
  std::vector<NodeId> neighbors(sorted.size() * 2);
  std::vector<double> weights(sorted.size() * 2);
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& e : sorted) {
    neighbors[cursor[e.u]] = e.v;
    weights[cursor[e.u]++] = e.weight;
    neighbors[cursor[e.v]] = e.u;
    weights[cursor[e.v]++] = e.weight;
  }
  // Joint per-row sort keeps each weight on its edge.
  std::vector<std::pair<NodeId, double>> row;
  for (size_t i = 0; i < num_nodes_; ++i) {
    const size_t b = offsets[i], e = offsets[i + 1];
    row.clear();
    for (size_t p = b; p < e; ++p) row.emplace_back(neighbors[p], weights[p]);
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b2) { return a.first < b2.first; });
    for (size_t p = b; p < e; ++p) {
      neighbors[p] = row[p - b].first;
      weights[p] = row[p - b].second;
    }
  }
  return Graph(std::move(offsets), std::move(neighbors), std::move(weights),
               {});
}

Result<Graph> GraphBuilder::Build(NodeOrdering ordering) const {
  Result<Graph> base = Build();
  if (!base.ok() || ordering == NodeOrdering::kOriginal) return base;
  const Graph& graph = base.value();
  return ReorderGraph(graph, ComputeNodeOrdering(graph, ordering));
}

Result<StreamBuildStats> GraphBuilder::BuildToFile(
    const std::string& path, const StreamBuildOptions& options) const {
  if (weights_.empty()) {
    VectorEdgeSource source({edges_.data(), edges_.size()});
    return BuildGraphFileFromEdges(num_nodes_, source, path, options);
  }
  VectorWeightedEdgeSource source({edges_.data(), edges_.size()},
                                  {weights_.data(), weights_.size()});
  return BuildGraphFileFromEdges(num_nodes_, source, path, options);
}

Result<Graph> BuildGraph(size_t num_nodes, const std::vector<Edge>& edges) {
  GraphBuilder builder(num_nodes);
  builder.AddEdges(edges);
  return builder.Build();
}

Result<Graph> BuildWeightedGraph(size_t num_nodes,
                                 const std::vector<WeightedEdge>& edges) {
  GraphBuilder builder(num_nodes);
  builder.AddWeightedEdges(edges);
  return builder.Build();
}

}  // namespace oca

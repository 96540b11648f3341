#include "io/community_serialize.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <ostream>
#include <vector>

#include "io/community_format.h"

namespace oca {

namespace {

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Pads `out` with zero bytes from `at` up to the next 8-byte boundary.
void PadTo8(std::ostream& out, uint64_t at) {
  static constexpr char kZeros[8] = {0};
  out.write(kZeros, static_cast<std::streamsize>(CommunityFileAlign8(at) - at));
}

Result<uint32_t> StopReasonCode(const std::string& reason) {
  for (uint32_t code = 0; code < kCommunityStopReasonCount; ++code) {
    if (CommunityStopReasonName(code) == reason) return code;
  }
  return Status::InvalidArgument("stop reason '" + reason +
                                 "' has no OCAC on-disk code");
}

/// Tree-shape validation, strictly before any byte is written: the
/// store trusts the snapshot's internal links on its zero-copy query
/// path, so a malformed tree must be an error here, not a bad file.
Status ValidateTree(const RecursiveHierarchy& tree, uint64_t num_nodes) {
  const size_t c = tree.nodes.size();
  std::vector<char> is_root(c, 0);
  for (uint32_t r : tree.roots) {
    if (r >= c) {
      return Status::InvalidArgument("root arena id " + std::to_string(r) +
                                     " out of range (" + std::to_string(c) +
                                     " communities)");
    }
    is_root[r] = 1;
  }
  size_t child_links = 0;
  for (size_t i = 0; i < c; ++i) {
    const RecursiveCommunity& node = tree.nodes[i];
    if (node.community.empty()) {
      return Status::InvalidArgument("community " + std::to_string(i) +
                                     " is empty");
    }
    NodeId prev = 0;
    for (size_t j = 0; j < node.community.size(); ++j) {
      const NodeId v = node.community[j];
      if (v >= num_nodes) {
        return Status::InvalidArgument(
            "community " + std::to_string(i) + " member " + std::to_string(v) +
            " out of range (graph has " + std::to_string(num_nodes) +
            " nodes)");
      }
      if (j > 0 && v <= prev) {
        return Status::InvalidArgument("community " + std::to_string(i) +
                                       " members not sorted ascending");
      }
      prev = v;
    }
    const bool root = node.parent == RecursiveHierarchy::kNoParent;
    if (root != static_cast<bool>(is_root[i])) {
      return Status::InvalidArgument(
          "community " + std::to_string(i) +
          (root ? " has no parent but is not listed as a root"
                : " is listed as a root but has a parent"));
    }
    if (!root && (node.parent >= c || tree.nodes[node.parent].depth + 1 !=
                                          node.depth)) {
      return Status::InvalidArgument("community " + std::to_string(i) +
                                     " parent/depth link malformed");
    }
    if (root && node.depth != 0) {
      return Status::InvalidArgument("root community " + std::to_string(i) +
                                     " has nonzero depth");
    }
    for (uint32_t ch : node.children) {
      if (ch >= c || tree.nodes[ch].parent != i) {
        return Status::InvalidArgument("community " + std::to_string(i) +
                                       " child link malformed");
      }
    }
    child_links += node.children.size();
  }
  if (child_links + tree.roots.size() != c) {
    return Status::InvalidArgument(
        "tree is not a forest: " + std::to_string(c) + " communities, " +
        std::to_string(tree.roots.size()) + " roots, " +
        std::to_string(child_links) + " child links");
  }
  return Status::OK();
}

}  // namespace

Result<uint64_t> WriteCommunityStore(const RecursiveHierarchy& tree,
                                     uint64_t num_nodes, uint64_t num_edges,
                                     std::ostream& out) {
  if (num_nodes == 0) {
    return Status::InvalidArgument(
        "community store needs a graph with at least one node");
  }
  if (num_nodes > kCommunityFileNoParent) {
    return Status::InvalidArgument("community store node ids are u32; " +
                                   std::to_string(num_nodes) +
                                   " nodes do not fit");
  }
  OCA_RETURN_IF_ERROR(ValidateTree(tree, num_nodes));

  // Resolve every stop reason before the first byte goes out, so an
  // unknown reason is a clean error, not a truncated file.
  std::vector<uint32_t> reason_codes;
  reason_codes.reserve(tree.nodes.size());
  for (const RecursiveCommunity& node : tree.nodes) {
    OCA_ASSIGN_OR_RETURN(uint32_t code, StopReasonCode(node.stop_reason));
    reason_codes.push_back(code);
  }

  CommunityFileCounts counts;
  counts.num_nodes = num_nodes;
  counts.num_edges = num_edges;
  counts.communities = tree.nodes.size();
  counts.roots = tree.roots.size();
  for (const RecursiveCommunity& node : tree.nodes) {
    counts.levels = std::max<uint64_t>(counts.levels, node.depth + 1);
    counts.member_entries += node.community.size();
    counts.child_entries += node.children.size();
  }

  // Node -> root-community postings, first in `tree.roots` order.
  std::vector<std::vector<uint32_t>> postings(num_nodes);
  for (uint32_t r : tree.roots) {
    for (NodeId v : tree.nodes[r].community) postings[v].push_back(r);
    counts.posting_entries += tree.nodes[r].community.size();
  }

  // Membership paths from the tree's own descent, started only at the
  // roots that contain v and in `tree.roots` order, so the stored
  // section is definitionally what MembershipPaths answers in memory
  // without scanning every root per node.
  std::vector<std::vector<std::vector<uint32_t>>> paths(num_nodes);
  for (uint64_t v = 0; v < num_nodes; ++v) {
    for (uint32_t r : postings[v]) {
      tree.AppendMembershipPaths(static_cast<NodeId>(v), r, &paths[v]);
    }
    counts.paths += paths[v].size();
    for (const auto& path : paths[v]) counts.path_entries += path.size();
    // The stored postings are ascending per node.
    std::sort(postings[v].begin(), postings[v].end());
  }

  const std::vector<RecursiveLevelSummary> levels = tree.LevelSummaries();
  if (levels.size() != counts.levels) {
    return Status::Internal("level summary count " +
                            std::to_string(levels.size()) +
                            " disagrees with max depth " +
                            std::to_string(counts.levels));
  }

  // Header.
  out.write(kCommunityFileMagic, sizeof(kCommunityFileMagic));
  WritePod(out, kCommunityFileVersion);
  WritePod(out, counts.num_nodes);
  WritePod(out, counts.num_edges);
  WritePod(out, counts.communities);
  WritePod(out, counts.roots);
  WritePod(out, counts.levels);
  WritePod(out, counts.paths);
  WritePod(out, counts.member_entries);
  WritePod(out, counts.child_entries);
  WritePod(out, counts.posting_entries);
  WritePod(out, counts.path_entries);
  WritePod(out, tree.root_stats.coupling_constant);
  WritePod(out, tree.root_stats.lambda_min);
  WritePod(out, tree.Digest());

  // Records.
  uint64_t members_begin = 0, children_begin = 0;
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    const RecursiveCommunity& node = tree.nodes[i];
    const uint32_t reason = reason_codes[i];
    CommunityRecord rec;
    rec.members_begin = members_begin;
    rec.children_begin = children_begin;
    rec.member_count = static_cast<uint32_t>(node.community.size());
    rec.child_count = static_cast<uint32_t>(node.children.size());
    rec.parent = node.parent;
    rec.depth = node.depth;
    rec.stop_reason = reason;
    rec.reserved = 0;
    rec.subgraph_c = node.subgraph_c;
    rec.subgraph_lambda_min = node.subgraph_lambda_min;
    WritePod(out, rec);
    members_begin += rec.member_count;
    children_begin += rec.child_count;
  }

  // Roots (arena order, the canonical top-level cover order).
  for (uint32_t r : tree.roots) WritePod(out, r);
  PadTo8(out, CommunityFileRootsStart(counts) +
                  counts.roots * sizeof(uint32_t));

  // Members.
  for (const RecursiveCommunity& node : tree.nodes) {
    out.write(reinterpret_cast<const char*>(node.community.data()),
              static_cast<std::streamsize>(node.community.size() *
                                           sizeof(uint32_t)));
  }
  PadTo8(out, CommunityFileMembersStart(counts) +
                  counts.member_entries * sizeof(uint32_t));

  // Children.
  for (const RecursiveCommunity& node : tree.nodes) {
    out.write(reinterpret_cast<const char*>(node.children.data()),
              static_cast<std::streamsize>(node.children.size() *
                                           sizeof(uint32_t)));
  }
  PadTo8(out, CommunityFileChildrenStart(counts) +
                  counts.child_entries * sizeof(uint32_t));

  // Posting CSR.
  uint64_t offset = 0;
  for (uint64_t v = 0; v < num_nodes; ++v) {
    WritePod(out, offset);
    offset += postings[v].size();
  }
  WritePod(out, offset);
  for (uint64_t v = 0; v < num_nodes; ++v) {
    out.write(reinterpret_cast<const char*>(postings[v].data()),
              static_cast<std::streamsize>(postings[v].size() *
                                           sizeof(uint32_t)));
  }
  PadTo8(out, CommunityFilePostingsStart(counts) +
                  counts.posting_entries * sizeof(uint32_t));

  // Path sections: node offsets, path offsets, entries.
  offset = 0;
  for (uint64_t v = 0; v < num_nodes; ++v) {
    WritePod(out, offset);
    offset += paths[v].size();
  }
  WritePod(out, offset);
  offset = 0;
  for (uint64_t v = 0; v < num_nodes; ++v) {
    for (const auto& path : paths[v]) {
      WritePod(out, offset);
      offset += path.size();
    }
  }
  WritePod(out, offset);
  for (uint64_t v = 0; v < num_nodes; ++v) {
    for (const auto& path : paths[v]) {
      out.write(reinterpret_cast<const char*>(path.data()),
                static_cast<std::streamsize>(path.size() * sizeof(uint32_t)));
    }
  }
  PadTo8(out, CommunityFilePathEntriesStart(counts) +
                  counts.path_entries * sizeof(uint32_t));

  // Level rollups.
  for (const RecursiveLevelSummary& level : levels) {
    CommunityLevelRecord rec;
    rec.depth = level.depth;
    rec.communities = level.communities;
    rec.split = level.split;
    rec.subgraph_solves = level.subgraph_solves;
    rec.warm_started = level.warm_started;
    rec.spectral_iterations = level.spectral_iterations;
    WritePod(out, rec);
  }

  if (!out) return Status::IOError("community store write failed");
  return CommunityFileBytes(counts);
}

Result<uint64_t> WriteCommunityStoreFile(const RecursiveHierarchy& tree,
                                         uint64_t num_nodes,
                                         uint64_t num_edges,
                                         const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  return WriteCommunityStore(tree, num_nodes, num_edges, out);
}

RecursiveHierarchy FlatHierarchyFromResult(const OcaResult& result) {
  RecursiveHierarchy tree;
  tree.nodes.reserve(result.cover.size());
  tree.roots.reserve(result.cover.size());
  for (size_t i = 0; i < result.cover.size(); ++i) {
    RecursiveCommunity node;
    node.community = result.cover[i];
    node.stop_reason = "flat";
    tree.nodes.push_back(std::move(node));
    tree.roots.push_back(static_cast<uint32_t>(i));
  }
  tree.root_stats = result.stats;
  return tree;
}

}  // namespace oca

// store_build: runs the recursive OCA descent on the nested planted
// partition and persists the result as a .ocac community store — the
// snapshot examples/oca_serve serves and examples/store_query reads.
//
//   $ ./build/examples/store_build --out=communities.ocac
//         [--seed=7] [--supers=6] [--subs=4] [--sub_size=40]
//         [--threads=N] [--verify]
//
// The generator parameters default to the CI store-serve fixture (a
// 960-node graph, same regime as hierarchy_explorer). --verify reopens
// the written file and exhaustively cross-checks every store query
// against the in-memory tree — members, children, parents, stop
// reasons, membership paths, level rollups — before reporting success.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "oca/oca.h"

#include "gen/nested_partition.h"
#include "util/flags.h"

namespace {

int Fail(const oca::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Exhaustive store-vs-tree comparison; returns false (and prints) on
/// the first divergence.
bool VerifyStore(const oca::CommunityStore& store,
                 const oca::RecursiveHierarchy& tree, size_t num_nodes) {
  const auto& meta = store.metadata();
  if (meta.num_communities != tree.nodes.size() ||
      meta.num_roots != tree.roots.size() ||
      meta.tree_digest != tree.Digest()) {
    std::fprintf(stderr, "verify: metadata mismatch\n");
    return false;
  }
  for (uint32_t c = 0; c < tree.nodes.size(); ++c) {
    const auto& node = tree.nodes[c];
    auto members = store.Members(c);
    if (members.size() != node.community.size() ||
        !std::equal(members.begin(), members.end(), node.community.begin())) {
      std::fprintf(stderr, "verify: members of %u differ\n", c);
      return false;
    }
    auto children = store.Children(c);
    if (children.size() != node.children.size() ||
        !std::equal(children.begin(), children.end(), node.children.begin())) {
      std::fprintf(stderr, "verify: children of %u differ\n", c);
      return false;
    }
    if (store.Parent(c) != node.parent || store.Depth(c) != node.depth ||
        store.StopReason(c) != node.stop_reason ||
        store.SubgraphC(c) != node.subgraph_c ||
        store.SubgraphLambdaMin(c) != node.subgraph_lambda_min) {
      std::fprintf(stderr, "verify: record of %u differs\n", c);
      return false;
    }
  }
  for (oca::NodeId v = 0; v < num_nodes; ++v) {
    auto paths = tree.MembershipPaths(v);
    if (store.NumPaths(v) != paths.size()) {
      std::fprintf(stderr, "verify: path count of node %u differs\n", v);
      return false;
    }
    for (size_t i = 0; i < paths.size(); ++i) {
      auto stored = store.MembershipPath(v, i);
      if (stored.size() != paths[i].size() ||
          !std::equal(stored.begin(), stored.end(), paths[i].begin())) {
        std::fprintf(stderr, "verify: path %zu of node %u differs\n", i, v);
        return false;
      }
    }
  }
  auto levels = store.Levels();
  auto summaries = tree.LevelSummaries();
  if (levels.size() != summaries.size()) {
    std::fprintf(stderr, "verify: level count differs\n");
    return false;
  }
  for (size_t i = 0; i < levels.size(); ++i) {
    if (levels[i].communities != summaries[i].communities ||
        levels[i].split != summaries[i].split) {
      std::fprintf(stderr, "verify: level %zu rollup differs\n", i);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  oca::FlagParser flags;
  if (auto s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  std::string out = flags.GetString("out", "");
  oca::NestedPartitionOptions gen;
  gen.seed = static_cast<uint64_t>(flags.GetInt("seed", 7).value_or(7));
  gen.num_supers = static_cast<size_t>(flags.GetInt("supers", 6).value_or(6));
  gen.subs_per_super =
      static_cast<size_t>(flags.GetInt("subs", 4).value_or(4));
  gen.nodes_per_sub =
      static_cast<size_t>(flags.GetInt("sub_size", 40).value_or(40));
  const auto threads =
      static_cast<size_t>(flags.GetInt("threads", 0).value_or(0));
  const bool verify = flags.GetBool("verify", false);
  if (auto s = flags.CheckAllRead(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }
  if (out.empty()) {
    std::fprintf(stderr,
                 "usage: store_build --out=<file.ocac> [--seed=7] "
                 "[--supers=6] [--subs=4] [--sub_size=40] [--threads=N] "
                 "[--verify]\n");
    return 2;
  }

  gen.p_sub = 0.85;
  gen.p_super = 0.15;
  gen.p_out = 0.08;

  auto bench = oca::GenerateNestedPartition(gen);
  if (!bench.ok()) return Fail(bench.status());
  const oca::Graph& graph = bench.value().graph;
  std::printf("graph: %zu nodes, %zu edges\n", graph.num_nodes(),
              graph.num_edges());

  oca::RecursiveHierarchyOptions rec;
  rec.base.seed = gen.seed;
  rec.base.halting.max_seeds = graph.num_nodes() * 3;
  rec.base.halting.target_coverage = 0.98;
  rec.base.halting.stagnation_window = 150;
  rec.num_threads = threads;

  auto built = oca::BuildRecursiveHierarchy(graph, rec);
  if (!built.ok()) return Fail(built.status());
  const oca::RecursiveHierarchy& tree = built.value();
  std::printf("hierarchy: %zu communities, %zu roots, max depth %zu\n",
              tree.nodes.size(), tree.roots.size(), tree.max_depth_reached);

  auto written = oca::WriteCommunityStoreFile(tree, graph.num_nodes(),
                                              graph.num_edges(), out);
  if (!written.ok()) return Fail(written.status());
  std::printf("store written to %s (%" PRIu64 " bytes)\n", out.c_str(),
              written.value());
  std::printf("tree digest: %016" PRIx64 "\n", tree.Digest());

  if (verify) {
    auto store = oca::CommunityStore::Open(out);
    if (!store.ok()) return Fail(store.status());
    if (!VerifyStore(store.value(), tree, graph.num_nodes())) return 1;
    std::printf("verify: store matches the in-memory tree exactly\n");
  }
  return 0;
}

// CommunityStore query semantics, pinned against hand-computed answers
// on a small overlapping hierarchy — CommunitiesOf, NumPaths,
// MembershipPath and every SiblingsAtLevel edge (root level, missing
// levels, overlap dedup, uncovered nodes) — plus the concurrency
// contract: the query path takes no locks and mutates no store state,
// so N threads hammering one store (and copies of it) must reproduce
// the serial answers exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/community_store.h"
#include "core/recursive_hierarchy.h"
#include "io/community_serialize.h"
#include "testing/temp_path.h"

namespace oca {
namespace {

// Nine nodes; node 8 is in no community. Two overlapping roots:
//
//   root 0 {0..5} -> 2 {0,1,2}, 3 {3,4,5}
//   root 1 {4..7} -> 4 {6,7}
//
// Membership paths: nodes 0-2 [0,2]; node 3 [0,3]; nodes 4,5 [0,3] and
// [1]; nodes 6,7 [1,4]; node 8 none.
constexpr uint64_t kNodes = 9;

RecursiveHierarchy HandcraftedTree() {
  RecursiveHierarchy tree;
  tree.nodes.resize(5);
  tree.nodes[0].community = {0, 1, 2, 3, 4, 5};
  tree.nodes[0].children = {2, 3};
  tree.nodes[0].stop_reason = "split";
  tree.nodes[1].community = {4, 5, 6, 7};
  tree.nodes[1].children = {4};
  tree.nodes[1].stop_reason = "split";
  tree.nodes[2].community = {0, 1, 2};
  tree.nodes[2].parent = 0;
  tree.nodes[2].depth = 1;
  tree.nodes[2].stop_reason = "min_size";
  tree.nodes[3].community = {3, 4, 5};
  tree.nodes[3].parent = 0;
  tree.nodes[3].depth = 1;
  tree.nodes[3].stop_reason = "density";
  tree.nodes[4].community = {6, 7};
  tree.nodes[4].parent = 1;
  tree.nodes[4].depth = 1;
  tree.nodes[4].stop_reason = "max_depth";
  tree.roots = {0, 1};
  tree.max_depth_reached = 1;
  return tree;
}

class CommunityStoreQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string path =
        testing::TestTempPath("store_query_test.ocac");
    auto written = WriteCommunityStoreFile(HandcraftedTree(), kNodes, 13,
                                           path);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    auto store = CommunityStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::make_unique<CommunityStore>(std::move(store).value());
  }

  std::vector<uint32_t> Communities(NodeId v) const {
    auto span = store_->CommunitiesOf(v);
    return {span.begin(), span.end()};
  }

  std::vector<uint32_t> Path(NodeId v, size_t i) const {
    auto span = store_->MembershipPath(v, i);
    return {span.begin(), span.end()};
  }

  std::vector<uint32_t> Siblings(NodeId v, uint32_t k) const {
    std::vector<uint32_t> out;
    store_->SiblingsAtLevel(v, k, &out);
    return out;
  }

  std::unique_ptr<CommunityStore> store_;
};

using U32s = std::vector<uint32_t>;

TEST_F(CommunityStoreQueryTest, CommunitiesOfListsContainingRoots) {
  EXPECT_EQ(Communities(0), (U32s{0}));
  EXPECT_EQ(Communities(3), (U32s{0}));
  EXPECT_EQ(Communities(4), (U32s{0, 1}));  // overlap, ascending
  EXPECT_EQ(Communities(5), (U32s{0, 1}));
  EXPECT_EQ(Communities(6), (U32s{1}));
  EXPECT_EQ(Communities(8), (U32s{}));  // uncovered
}

TEST_F(CommunityStoreQueryTest, MembershipPathsRunRootToLeaf) {
  ASSERT_EQ(store_->NumPaths(0), 1u);
  EXPECT_EQ(Path(0, 0), (U32s{0, 2}));
  ASSERT_EQ(store_->NumPaths(3), 1u);
  EXPECT_EQ(Path(3, 0), (U32s{0, 3}));
  // Overlapping node: one path per containing root, root-0 path first
  // (postings are ascending, paths follow posting order).
  ASSERT_EQ(store_->NumPaths(4), 2u);
  EXPECT_EQ(Path(4, 0), (U32s{0, 3}));
  EXPECT_EQ(Path(4, 1), (U32s{1}));  // 4 is in no child of root 1
  ASSERT_EQ(store_->NumPaths(6), 1u);
  EXPECT_EQ(Path(6, 0), (U32s{1, 4}));
  EXPECT_EQ(store_->NumPaths(8), 0u);
}

TEST_F(CommunityStoreQueryTest, SiblingsAtRootLevelAreAllRoots) {
  // k == 0: the sibling set is the whole top-level cover, emitted once
  // even when several paths qualify (node 4 has two).
  EXPECT_EQ(Siblings(0, 0), (U32s{0, 1}));
  EXPECT_EQ(Siblings(4, 0), (U32s{0, 1}));
  EXPECT_EQ(Siblings(7, 0), (U32s{0, 1}));
}

TEST_F(CommunityStoreQueryTest, SiblingsBelowRootShareTheParent) {
  // Node 0 at depth 1 sits in community 2; its siblings are all of
  // parent 0's children, itself included.
  EXPECT_EQ(Siblings(0, 1), (U32s{2, 3}));
  // Node 4's depth-1 qualifier is community 3 (its [1] path is too
  // short to reach depth 1 and contributes nothing).
  EXPECT_EQ(Siblings(4, 1), (U32s{2, 3}));
  // Root 1's only child.
  EXPECT_EQ(Siblings(6, 1), (U32s{4}));
}

TEST_F(CommunityStoreQueryTest, SiblingsPastTheDeepestPathAreEmpty) {
  EXPECT_EQ(Siblings(0, 2), (U32s{}));
  EXPECT_EQ(Siblings(4, 17), (U32s{}));
  EXPECT_EQ(Siblings(8, 0), (U32s{}));  // uncovered at every level
  EXPECT_EQ(Siblings(8, 1), (U32s{}));
}

TEST_F(CommunityStoreQueryTest, SiblingBufferIsReusedAndCleared) {
  std::vector<uint32_t> out{7, 7, 7, 7};
  store_->SiblingsAtLevel(6, 1, &out);
  EXPECT_EQ(out, (U32s{4}));  // cleared first, not appended
  store_->SiblingsAtLevel(8, 0, &out);
  EXPECT_TRUE(out.empty());
}

TEST_F(CommunityStoreQueryTest, ConcurrentReadersMatchSerialAnswers) {
  // Serial ground truth for every (query, node, level) this store can
  // answer, captured once up front.
  struct Expected {
    std::vector<std::vector<uint32_t>> communities;
    std::vector<std::vector<std::vector<uint32_t>>> paths;
    std::vector<std::vector<std::vector<uint32_t>>> siblings;
  } expected;
  const uint32_t levels =
      static_cast<uint32_t>(store_->metadata().num_levels) + 1;
  for (NodeId v = 0; v < kNodes; ++v) {
    expected.communities.push_back(Communities(v));
    std::vector<std::vector<uint32_t>> paths;
    for (size_t i = 0; i < store_->NumPaths(v); ++i) {
      paths.push_back(Path(v, i));
    }
    expected.paths.push_back(std::move(paths));
    std::vector<std::vector<uint32_t>> sibs;
    for (uint32_t k = 0; k < levels; ++k) sibs.push_back(Siblings(v, k));
    expected.siblings.push_back(std::move(sibs));
  }

  // 8 readers, each on its OWN COPY of the store (copies share the
  // mapping — the documented multi-reader pattern), re-answering every
  // query many times. Any divergence or data race (this test runs under
  // TSan-less CI but ASan/UBSan catch the memory half) fails the run.
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 400;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      CommunityStore local = *store_;  // shared-mapping copy
      std::vector<uint32_t> scratch;
      for (size_t r = 0; r < kRounds; ++r) {
        // Stagger the sweep start so threads collide on different nodes.
        for (size_t step = 0; step < kNodes; ++step) {
          const NodeId v = static_cast<NodeId>((t + step) % kNodes);
          auto communities = local.CommunitiesOf(v);
          if (!std::equal(communities.begin(), communities.end(),
                          expected.communities[v].begin(),
                          expected.communities[v].end())) {
            mismatches.fetch_add(1);
          }
          const size_t num_paths = local.NumPaths(v);
          if (num_paths != expected.paths[v].size()) {
            mismatches.fetch_add(1);
            continue;
          }
          for (size_t i = 0; i < num_paths; ++i) {
            auto path = local.MembershipPath(v, i);
            if (!std::equal(path.begin(), path.end(),
                            expected.paths[v][i].begin(),
                            expected.paths[v][i].end())) {
              mismatches.fetch_add(1);
            }
          }
          for (uint32_t k = 0; k < levels; ++k) {
            local.SiblingsAtLevel(v, k, &scratch);
            if (scratch != expected.siblings[v][k]) {
              mismatches.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace oca

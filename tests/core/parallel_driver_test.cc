#include "core/parallel_driver.h"

#include <gtest/gtest.h>

#include "spectral/extreme_eigen.h"
#include "testing/test_graphs.h"

namespace oca {
namespace {

using testing::TwoCliquesBridge;

LocalSearchOptions Options(const Graph& g) {
  LocalSearchOptions opt;
  opt.fitness.kind = FitnessKind::kDirectedLaplacian;
  opt.fitness.c = ComputeCouplingConstant(g).value();
  return opt;
}

TEST(ExpandSeedBatchTest, SerialExpandsAll) {
  Graph g = TwoCliquesBridge();
  std::vector<Community> seeds = {{0}, {9}, {4}};
  auto results = ExpandSeedBatch(g, seeds, Options(g), nullptr).value();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].community, (Community{0, 1, 2, 3, 4}));
  EXPECT_EQ(results[1].community, (Community{5, 6, 7, 8, 9}));
  EXPECT_FALSE(results[2].community.empty());
}

TEST(ExpandSeedBatchTest, ParallelMatchesSerial) {
  Graph g = testing::KarateClub();
  std::vector<Community> seeds;
  for (NodeId v = 0; v < g.num_nodes(); ++v) seeds.push_back({v});
  auto serial = ExpandSeedBatch(g, seeds, Options(g), nullptr).value();
  ThreadPool pool(4);
  auto parallel = ExpandSeedBatch(g, seeds, Options(g), &pool).value();
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].community, parallel[i].community) << "slot " << i;
    EXPECT_EQ(serial[i].fitness, parallel[i].fitness);
  }
}

TEST(ExpandSeedBatchTest, InvalidSeedFailsWithLowestSlotError) {
  // Slot 1 (empty seed) and slot 2 (out of range) both fail; serial and
  // threaded runs report slot 1's error.
  Graph g = TwoCliquesBridge();
  std::vector<Community> seeds = {{0}, {}, {99}, {5}};
  auto serial = ExpandSeedBatch(g, seeds, Options(g), nullptr);
  ASSERT_FALSE(serial.ok());
  EXPECT_TRUE(serial.status().IsInvalidArgument());
  EXPECT_NE(serial.status().message().find("non-empty"), std::string::npos);
  ThreadPool pool(4);
  auto threaded = ExpandSeedBatch(g, seeds, Options(g), &pool);
  ASSERT_FALSE(threaded.ok());
  EXPECT_EQ(threaded.status().ToString(), serial.status().ToString());
}

TEST(ExpandSeedBatchTest, EmptyBatch) {
  Graph g = TwoCliquesBridge();
  ThreadPool pool(2);
  auto results = ExpandSeedBatch(g, {}, Options(g), &pool).value();
  EXPECT_TRUE(results.empty());
}

TEST(ExpandSeedBatchTest, SingleSeedSkipsPool) {
  Graph g = TwoCliquesBridge();
  ThreadPool pool(2);
  auto results = ExpandSeedBatch(g, {{3}}, Options(g), &pool).value();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].community, (Community{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace oca

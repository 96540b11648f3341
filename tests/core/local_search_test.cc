#include "core/local_search.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "gen/erdos_renyi.h"
#include "spectral/extreme_eigen.h"
#include "testing/test_graphs.h"
#include "util/random.h"

namespace oca {
namespace {

using testing::Clique;
using testing::TwoCliquesBridge;
using testing::TwoCliquesOverlap;

LocalSearchOptions LaplacianOptions(double c) {
  LocalSearchOptions opt;
  opt.fitness.kind = FitnessKind::kDirectedLaplacian;
  opt.fitness.c = c;
  return opt;
}

/// Hub node 0 joined to every node of three disjoint 12-cliques.
Graph CliquesAroundHub() {
  std::vector<Edge> edges;
  for (NodeId base = 1; base < 37; base += 12) {
    for (NodeId u = base; u < base + 12; ++u) {
      edges.push_back({0, u});
      for (NodeId v = u + 1; v < base + 12; ++v) edges.push_back({u, v});
    }
  }
  return BuildGraph(37, edges).value();
}

TEST(LocalSearchTest, RecoversCliqueFromOneNode) {
  Graph g = TwoCliquesBridge();
  double c = ComputeCouplingConstant(g).value();
  auto result = GreedyLocalSearch(g, {0}, LaplacianOptions(c)).value();
  EXPECT_EQ(result.community, (Community{0, 1, 2, 3, 4}));
  EXPECT_GT(result.fitness, 1.0);
  EXPECT_EQ(result.stats.ein, 10u);
}

TEST(LocalSearchTest, RecoversOtherCliqueFromItsSide) {
  Graph g = TwoCliquesBridge();
  double c = ComputeCouplingConstant(g).value();
  auto result = GreedyLocalSearch(g, {9}, LaplacianOptions(c)).value();
  EXPECT_EQ(result.community, (Community{5, 6, 7, 8, 9}));
}

TEST(LocalSearchTest, OverlappingCliquesFoundFromEachSide) {
  // The core overlapping scenario: seeds on either side recover the two
  // overlapping 6-cliques, both containing the shared nodes {4, 5}.
  Graph g = TwoCliquesOverlap();
  double c = ComputeCouplingConstant(g).value();
  auto left = GreedyLocalSearch(g, {0}, LaplacianOptions(c)).value();
  auto right = GreedyLocalSearch(g, {9}, LaplacianOptions(c)).value();
  EXPECT_EQ(left.community, (Community{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(right.community, (Community{4, 5, 6, 7, 8, 9}));
}

TEST(LocalSearchTest, RemovesBadSeedMembers) {
  // Seed contains a node from the wrong clique; the search must drop it.
  Graph g = TwoCliquesBridge();
  double c = ComputeCouplingConstant(g).value();
  auto result =
      GreedyLocalSearch(g, {0, 1, 9}, LaplacianOptions(c)).value();
  EXPECT_EQ(result.community, (Community{0, 1, 2, 3, 4}));
  EXPECT_GT(result.removes, 0u);
}

TEST(LocalSearchTest, FitnessNeverDecreasesAlongPath) {
  // Strict improvement is the termination argument; verify via the step
  // counter against a re-run with max_steps.
  Graph g = testing::KarateClub();
  double c = ComputeCouplingConstant(g).value();
  auto full = GreedyLocalSearch(g, {0}, LaplacianOptions(c)).value();
  double prev = -1.0;
  for (size_t cap = 1; cap <= full.steps; ++cap) {
    LocalSearchOptions opt = LaplacianOptions(c);
    opt.max_steps = cap;
    auto partial = GreedyLocalSearch(g, {0}, opt).value();
    EXPECT_GT(partial.fitness, prev);
    prev = partial.fitness;
  }
}

TEST(LocalSearchTest, LocalMaximumIsStable) {
  // Re-seeding from the found community must not move.
  Graph g = TwoCliquesOverlap();
  double c = ComputeCouplingConstant(g).value();
  auto first = GreedyLocalSearch(g, {0}, LaplacianOptions(c)).value();
  auto again =
      GreedyLocalSearch(g, first.community, LaplacianOptions(c)).value();
  EXPECT_EQ(again.community, first.community);
  EXPECT_EQ(again.steps, 0u);
}

TEST(LocalSearchTest, EmptySeedErrors) {
  Graph g = Clique(4);
  auto result = GreedyLocalSearch(g, {}, LaplacianOptions(0.5));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(LocalSearchTest, OutOfRangeSeedErrors) {
  Graph g = Clique(4);
  EXPECT_FALSE(GreedyLocalSearch(g, {99}, LaplacianOptions(0.5)).ok());
}

TEST(LocalSearchTest, MaxCommunitySizeCapsGrowth) {
  Graph g = Clique(20);
  LocalSearchOptions opt = LaplacianOptions(0.9);
  opt.max_community_size = 7;
  auto result = GreedyLocalSearch(g, {0}, opt).value();
  EXPECT_LE(result.community.size(), 7u);
}

TEST(LocalSearchTest, StepCapReported) {
  Graph g = Clique(30);
  LocalSearchOptions opt = LaplacianOptions(0.9);
  opt.max_steps = 3;
  auto result = GreedyLocalSearch(g, {0}, opt).value();
  EXPECT_TRUE(result.hit_step_cap);
  EXPECT_EQ(result.steps, 3u);
}

TEST(LocalSearchTest, RawPhiDegeneratesToWholeComponent) {
  // Ablation sanity: with the monotone raw phi the search swallows the
  // entire connected component — exactly the paper's argument for the
  // directed Laplacian.
  Graph g = TwoCliquesBridge();
  LocalSearchOptions opt;
  opt.fitness.kind = FitnessKind::kRawPhi;
  opt.fitness.c = 0.5;
  auto result = GreedyLocalSearch(g, {0}, opt).value();
  EXPECT_EQ(result.community.size(), g.num_nodes());
}

TEST(LocalSearchTest, DisallowRemoveStillTerminates) {
  Graph g = testing::KarateClub();
  double c = ComputeCouplingConstant(g).value();
  LocalSearchOptions opt = LaplacianOptions(c);
  opt.allow_remove = false;
  auto result = GreedyLocalSearch(g, {0, 33}, opt).value();
  EXPECT_EQ(result.removes, 0u);
  EXPECT_GE(result.community.size(), 2u);
}

TEST(LocalSearchTest, DeterministicForFixedSeedSet) {
  Rng rng(3);
  Graph g = ErdosRenyi(200, 0.05, &rng).value();
  double c = ComputeCouplingConstant(g).value();
  auto a = GreedyLocalSearch(g, {10, 11}, LaplacianOptions(c)).value();
  auto b = GreedyLocalSearch(g, {11, 10}, LaplacianOptions(c)).value();
  EXPECT_EQ(a.community, b.community);
  EXPECT_EQ(a.fitness, b.fitness);
}

TEST(LocalSearchTest, FastClimberMatchesGenericAfterLowDegreeClimb) {
  // The fast climber's bucket queues live in per-thread scratch and grow
  // on demand. On a fresh thread, a climb on a cycle (keys <= 2) leaves
  // only a few buckets; the hub-graph climbs that follow insert keys far
  // past them and must still reach the generic climber's maxima.
  Graph cycle = testing::Cycle(12);
  Graph hub = CliquesAroundHub();
  LocalSearchOptions fast = LaplacianOptions(0.3);
  LocalSearchOptions generic = fast;
  generic.force_generic_climber = true;
  std::vector<LocalSearchResult> fast_results;
  std::thread([&] {
    GreedyLocalSearch(cycle, {0}, fast).value();
    for (NodeId seed = 0; seed < hub.num_nodes(); ++seed) {
      fast_results.push_back(GreedyLocalSearch(hub, {seed}, fast).value());
    }
  }).join();
  ASSERT_EQ(fast_results.size(), hub.num_nodes());
  size_t largest = 0;
  for (NodeId seed = 0; seed < hub.num_nodes(); ++seed) {
    auto reference = GreedyLocalSearch(hub, {seed}, generic).value();
    // From the hub itself the three cliques tie exactly, and the two
    // climbers break that tie differently (see GreedyLocalSearch): the
    // maxima are symmetric images with equal fitness and step counts.
    if (seed != 0) {
      EXPECT_EQ(fast_results[seed].community, reference.community)
          << "seed " << seed;
    }
    EXPECT_EQ(fast_results[seed].fitness, reference.fitness)
        << "seed " << seed;
    EXPECT_EQ(fast_results[seed].steps, reference.steps) << "seed " << seed;
    largest = std::max(largest, reference.community.size());
  }
  // Deg-in keys reach largest - 1, well past the cycle's.
  EXPECT_GE(largest, 12u);
}

// Parameterized: for random graphs and several c values, the returned
// community is a genuine local maximum — no single add or remove
// improves the fitness.
class LocalMaxPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LocalMaxPropertyTest, NoImprovingMoveExists) {
  Rng rng(GetParam());
  Graph g = ErdosRenyi(120, 0.08, &rng).value();
  if (g.num_edges() == 0) GTEST_SKIP();
  double c = ComputeCouplingConstant(g).value();
  NodeId seed = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
  auto result = GreedyLocalSearch(g, {seed}, LaplacianOptions(c)).value();

  SubsetStats stats = ComputeSubsetStats(g, result.community);
  FitnessParams params;
  params.kind = FitnessKind::kDirectedLaplacian;
  params.c = c;
  double fitness = EvaluateFitness(stats, params);
  EXPECT_NEAR(fitness, result.fitness, 1e-9);

  Community sorted = result.community;
  // Adds: every node adjacent to the community.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (std::binary_search(sorted.begin(), sorted.end(), v)) continue;
    size_t deg_in = 0;
    for (NodeId u : g.Neighbors(v)) {
      if (std::binary_search(sorted.begin(), sorted.end(), u)) ++deg_in;
    }
    if (deg_in == 0) continue;
    EXPECT_LE(FitnessGainAdd(stats, deg_in, g.Degree(v), params), 1e-9)
        << "add of " << v << " would improve";
  }
  // Removes.
  if (sorted.size() > 1) {
    for (NodeId v : sorted) {
      size_t deg_in = 0;
      for (NodeId u : g.Neighbors(v)) {
        if (std::binary_search(sorted.begin(), sorted.end(), u)) ++deg_in;
      }
      EXPECT_LE(FitnessGainRemove(stats, deg_in, g.Degree(v), params), 1e-9)
          << "remove of " << v << " would improve";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalMaxPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace oca

// Differential pins for the QUANTIZED weighted fast climber: on a
// weighted graph with use_weights set, GreedyLocalSearch routes to a
// bucket-queue climber keyed on the quantized weighted deg-in. The
// quantization is monotone and candidate selection rescans the extreme
// bucket exactly, so — with distinct hashed weights, where exact
// floating-point ties do not occur — every greedy decision must match
// the generic reference climber, and the replicated CommunityState
// bookkeeping must make the resulting SubsetStats bit-identical.

#include <gtest/gtest.h>

#include <vector>

#include "core/local_search.h"
#include "core/oca.h"
#include "gen/nested_partition.h"
#include "gen/weight_assign.h"
#include "testing/test_graphs.h"

namespace oca {
namespace {

Graph NestedGraph() {
  NestedPartitionOptions gen;
  gen.num_supers = 3;
  gen.subs_per_super = 3;
  gen.nodes_per_sub = 16;
  gen.p_sub = 0.85;
  gen.p_super = 0.15;
  gen.p_out = 0.06;
  gen.seed = 13;
  return GenerateNestedPartition(gen).value().graph;
}

Graph HashWeighted(const Graph& g, double lo = 0.1, double hi = 10.0,
                   uint64_t seed = 42) {
  WeightAssignOptions options;
  options.min_weight = lo;
  options.max_weight = hi;
  options.seed = seed;
  return AssignWeights(g, options).value();
}

void ExpectClimbsMatch(const Graph& weighted, const LocalSearchOptions& base,
                       NodeId seed) {
  LocalSearchOptions fast_opt = base;
  fast_opt.force_generic_climber = false;
  LocalSearchOptions generic_opt = base;
  generic_opt.force_generic_climber = true;
  auto fast = GreedyLocalSearch(weighted, {seed}, fast_opt).value();
  auto generic = GreedyLocalSearch(weighted, {seed}, generic_opt).value();
  ASSERT_EQ(fast.community, generic.community) << "seed " << seed;
  EXPECT_EQ(fast.fitness, generic.fitness) << "seed " << seed;
  EXPECT_EQ(fast.steps, generic.steps) << "seed " << seed;
  EXPECT_EQ(fast.adds, generic.adds) << "seed " << seed;
  EXPECT_EQ(fast.removes, generic.removes) << "seed " << seed;
  // Bookkeeping parity: identical move sequence + identical per-move
  // float accumulation order = bit-identical weighted stats.
  EXPECT_EQ(fast.stats.w_in, generic.stats.w_in) << "seed " << seed;
  EXPECT_EQ(fast.stats.w_volume, generic.stats.w_volume) << "seed " << seed;
  EXPECT_EQ(fast.stats.ein, generic.stats.ein) << "seed " << seed;
  EXPECT_EQ(fast.stats.volume, generic.stats.volume) << "seed " << seed;
}

TEST(WeightedFastClimberTest, MatchesGenericFromEverySeed) {
  Graph weighted = HashWeighted(NestedGraph());
  LocalSearchOptions options;
  options.fitness.c = 0.4;
  options.fitness.use_weights = true;
  for (NodeId seed = 0; seed < weighted.num_nodes(); ++seed) {
    ExpectClimbsMatch(weighted, options, seed);
  }
}

TEST(WeightedFastClimberTest, MatchesGenericOnSmallFixtures) {
  for (const Graph& g : {testing::KarateClub(), testing::TwoCliquesOverlap(),
                         testing::TwoCliquesBridge()}) {
    Graph weighted = HashWeighted(g, 0.5, 4.0, 7);
    LocalSearchOptions options;
    options.fitness.use_weights = true;
    for (NodeId seed = 0; seed < weighted.num_nodes(); ++seed) {
      ExpectClimbsMatch(weighted, options, seed);
    }
  }
}

TEST(WeightedFastClimberTest, MatchesGenericUnderOptionVariants) {
  Graph weighted = HashWeighted(NestedGraph());
  LocalSearchOptions base;
  base.fitness.c = 0.4;
  base.fitness.use_weights = true;

  LocalSearchOptions capped = base;
  capped.max_community_size = 8;
  LocalSearchOptions no_remove = base;
  no_remove.allow_remove = false;
  LocalSearchOptions few_steps = base;
  few_steps.max_steps = 5;
  LocalSearchOptions coarse = base;
  coarse.epsilon = 0.05;
  for (const auto& options : {capped, no_remove, few_steps, coarse}) {
    for (NodeId seed = 0; seed < weighted.num_nodes(); seed += 7) {
      ExpectClimbsMatch(weighted, options, seed);
    }
  }
}

TEST(WeightedFastClimberTest, MatchesGenericOnRawPhi) {
  // Raw phi is monotone (every add improves), so pin it under a size
  // cap where the argmax ordering is the whole behavior.
  Graph weighted = HashWeighted(NestedGraph());
  LocalSearchOptions options;
  options.fitness.kind = FitnessKind::kRawPhi;
  options.fitness.c = 0.4;
  options.fitness.use_weights = true;
  options.max_community_size = 12;
  for (NodeId seed = 0; seed < weighted.num_nodes(); seed += 5) {
    ExpectClimbsMatch(weighted, options, seed);
  }
}

TEST(WeightedFastClimberTest, MatchesGenericUnderExtremeWeightSkew) {
  // A 1e6:1 weight spread collapses nearly every node into quantization
  // bucket 0 — the exact within-bucket rescan, not the bucketing, must
  // carry correctness.
  Graph weighted = HashWeighted(testing::KarateClub(), 1e-3, 1e3, 99);
  LocalSearchOptions options;
  options.fitness.use_weights = true;
  for (NodeId seed = 0; seed < weighted.num_nodes(); ++seed) {
    ExpectClimbsMatch(weighted, options, seed);
  }
}

TEST(WeightedFastClimberTest, MultiNodeSeedsMatchGeneric) {
  Graph weighted = HashWeighted(NestedGraph());
  LocalSearchOptions fast_opt;
  fast_opt.fitness.c = 0.4;
  fast_opt.fitness.use_weights = true;
  LocalSearchOptions generic_opt = fast_opt;
  generic_opt.force_generic_climber = true;
  for (NodeId base = 0; base + 4 < weighted.num_nodes(); base += 11) {
    Community seed{base, base + 1, base + 4};
    auto fast = GreedyLocalSearch(weighted, seed, fast_opt).value();
    auto generic = GreedyLocalSearch(weighted, seed, generic_opt).value();
    ASSERT_EQ(fast.community, generic.community) << "base " << base;
    EXPECT_EQ(fast.fitness, generic.fitness) << "base " << base;
  }
}

TEST(WeightedFastClimberTest, ScratchCacheSurvivesGraphSwitch) {
  // The per-thread scratch caches the weighted-degree table and the
  // quantization scale keyed on the graph's weight storage; alternating
  // between two different weighted graphs on one thread must invalidate
  // and rebuild, never reuse stale scales.
  Graph a = HashWeighted(NestedGraph(), 0.1, 10.0, 1);
  Graph b = HashWeighted(testing::KarateClub(), 0.5, 50.0, 2);
  LocalSearchOptions options;
  options.fitness.use_weights = true;
  auto a_fresh = GreedyLocalSearch(a, {3}, options).value();
  auto b_fresh = GreedyLocalSearch(b, {3}, options).value();
  for (int round = 0; round < 3; ++round) {
    auto a_again = GreedyLocalSearch(a, {3}, options).value();
    auto b_again = GreedyLocalSearch(b, {3}, options).value();
    EXPECT_EQ(a_again.community, a_fresh.community);
    EXPECT_EQ(a_again.fitness, a_fresh.fitness);
    EXPECT_EQ(b_again.community, b_fresh.community);
    EXPECT_EQ(b_again.fitness, b_fresh.fitness);
  }
}

TEST(WeightedFastClimberTest, ScratchCacheSeesGraphAssignedInPlace) {
  // Copy-assigning a graph of the same shape reuses the target's weight
  // buffer, so the weight array keeps its address and length while its
  // contents change. The scratch must still rebuild its weighted-degree
  // table: a stale one leaves the reported weighted volume (and in a
  // Debug build the w_deg_in <= w_deg assert) wrong.
  const Graph a = HashWeighted(NestedGraph(), 100.0, 1000.0, 1);
  const Graph b = HashWeighted(NestedGraph(), 0.1, 1.0, 7);
  LocalSearchOptions options;
  options.fitness.use_weights = true;
  Graph g = a;
  for (NodeId seed = 0; seed < 8; ++seed) {
    g = a;
    ASSERT_TRUE(GreedyLocalSearch(g, {seed}, options).ok());
    const double* buffer = g.weight_array().data();
    g = b;
    ASSERT_EQ(g.weight_array().data(), buffer);
    auto reused = GreedyLocalSearch(g, {seed}, options).value();
    auto fresh = GreedyLocalSearch(b, {seed}, options).value();
    EXPECT_EQ(reused.community, fresh.community) << "seed " << seed;
    EXPECT_EQ(reused.fitness, fresh.fitness) << "seed " << seed;
    EXPECT_EQ(reused.stats.w_volume, fresh.stats.w_volume) << "seed " << seed;
  }
}

TEST(WeightedFastClimberTest, UnweightedGraphWithUseWeightsTakesIntegerPath) {
  // use_weights on an UNWEIGHTED graph is the all-1.0 case: the integer
  // climber's mirrored stats make every weighted evaluation
  // bit-identical to the integer one, so the route through FastClimb
  // must reproduce the integer run exactly — covers, fitness, steps.
  Graph g = NestedGraph();
  LocalSearchOptions integer_opt;
  integer_opt.fitness.c = 0.4;
  LocalSearchOptions weighted_opt = integer_opt;
  weighted_opt.fitness.use_weights = true;
  for (NodeId seed = 0; seed < g.num_nodes(); ++seed) {
    auto base = GreedyLocalSearch(g, {seed}, integer_opt).value();
    auto wtd = GreedyLocalSearch(g, {seed}, weighted_opt).value();
    ASSERT_EQ(base.community, wtd.community) << "seed " << seed;
    EXPECT_EQ(base.fitness, wtd.fitness) << "seed " << seed;
    EXPECT_EQ(base.steps, wtd.steps) << "seed " << seed;
  }
}

TEST(WeightedFastClimberTest, WeightedOcaCoverMatchesGeneric) {
  // End to end: the full RunOca pipeline on a weighted graph produces
  // the identical cover whether climbs take the quantized fast path or
  // the generic reference.
  Graph weighted = HashWeighted(NestedGraph());
  OcaOptions options;
  options.seed = 5;
  options.halting.max_seeds = 300;
  options.halting.target_coverage = 0.97;
  options.search.fitness.use_weights = true;
  auto fast = RunOca(weighted, options).value();
  options.search.force_generic_climber = true;
  auto generic = RunOca(weighted, options).value();
  EXPECT_EQ(fast.cover, generic.cover);
  EXPECT_EQ(fast.stats.coupling_constant, generic.stats.coupling_constant);
}

}  // namespace
}  // namespace oca

#include "core/oca.h"

#include <gtest/gtest.h>

#include "gen/daisy.h"
#include "gen/lfr.h"
#include "metrics/theta.h"
#include "testing/test_graphs.h"

namespace oca {
namespace {

using testing::KarateClub;
using testing::TwoCliquesBridge;
using testing::TwoCliquesOverlap;

OcaOptions SmallGraphOptions(uint64_t seed = 42) {
  OcaOptions opt;
  opt.seed = seed;
  opt.halting.max_seeds = 50;
  opt.halting.target_coverage = 1.0;
  opt.halting.stagnation_window = 20;
  opt.min_community_size = 3;
  return opt;
}

TEST(OcaTest, FindsBothCliques) {
  Graph g = TwoCliquesBridge();
  auto result = RunOca(g, SmallGraphOptions()).value();
  ASSERT_EQ(result.cover.size(), 2u);
  EXPECT_EQ(result.cover[0], (Community{0, 1, 2, 3, 4}));
  EXPECT_EQ(result.cover[1], (Community{5, 6, 7, 8, 9}));
}

TEST(OcaTest, FindsOverlappingCliques) {
  Graph g = TwoCliquesOverlap();
  auto result = RunOca(g, SmallGraphOptions()).value();
  ASSERT_EQ(result.cover.size(), 2u);
  EXPECT_EQ(result.cover[0], (Community{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(result.cover[1], (Community{4, 5, 6, 7, 8, 9}));
  // Nodes 4 and 5 are in both: genuinely overlapping output.
  EXPECT_EQ(result.cover.TotalMembership(), 12u);
  EXPECT_EQ(result.cover.CoveredNodeCount(), 10u);
}

TEST(OcaTest, CouplingConstantIsResolvedSpectrally) {
  Graph g = TwoCliquesBridge();
  auto result = RunOca(g, SmallGraphOptions()).value();
  EXPECT_GT(result.stats.coupling_constant, 0.0);
  EXPECT_LT(result.stats.coupling_constant, 1.0);
  EXPECT_LT(result.stats.lambda_min, -1.0 + 1e-6);
  EXPECT_NEAR(result.stats.coupling_constant,
              -1.0 / result.stats.lambda_min, 1e-6);
}

TEST(OcaTest, ExplicitCouplingConstantSkipsSpectral) {
  Graph g = TwoCliquesBridge();
  OcaOptions opt = SmallGraphOptions();
  opt.coupling_constant = 0.5;
  auto result = RunOca(g, opt).value();
  EXPECT_DOUBLE_EQ(result.stats.coupling_constant, 0.5);
  EXPECT_DOUBLE_EQ(result.stats.lambda_min, 0.0);  // untouched
  EXPECT_EQ(result.cover.size(), 2u);
}

TEST(OcaTest, DeterministicAcrossRuns) {
  Graph g = KarateClub();
  auto a = RunOca(g, SmallGraphOptions(7)).value();
  auto b = RunOca(g, SmallGraphOptions(7)).value();
  EXPECT_EQ(a.cover, b.cover);
  EXPECT_EQ(a.stats.seeds_expanded, b.stats.seeds_expanded);
}

TEST(OcaTest, ParallelMatchesSerial) {
  Graph g = KarateClub();
  OcaOptions serial = SmallGraphOptions(11);
  OcaOptions parallel = SmallGraphOptions(11);
  parallel.num_threads = 4;
  auto a = RunOca(g, serial).value();
  auto b = RunOca(g, parallel).value();
  EXPECT_EQ(a.cover, b.cover);
}

TEST(OcaTest, EmptyGraphErrors) {
  EXPECT_TRUE(RunOca(Graph{}, SmallGraphOptions())
                  .status()
                  .IsInvalidArgument());
}

TEST(OcaTest, EdgelessGraphErrors) {
  Graph g = BuildGraph(5, {}).value();
  EXPECT_TRUE(RunOca(g, SmallGraphOptions())
                  .status()
                  .IsFailedPrecondition());
}

TEST(OcaTest, AllHaltingDisabledErrors) {
  Graph g = TwoCliquesBridge();
  OcaOptions opt = SmallGraphOptions();
  opt.halting.max_seeds = 0;
  opt.halting.target_coverage = 2.0;
  opt.halting.stagnation_window = 0;
  EXPECT_TRUE(RunOca(g, opt).status().IsInvalidArgument());
}

TEST(OcaTest, InvalidCouplingConstantErrors) {
  Graph g = TwoCliquesBridge();
  OcaOptions opt = SmallGraphOptions();
  opt.coupling_constant = 1.5;
  EXPECT_TRUE(RunOca(g, opt).status().IsInvalidArgument());
}

TEST(OcaTest, ClimbErrorReachesTheRunStatus) {
  // RunOca does not validate the climb's own options; a negative epsilon
  // fails every GreedyLocalSearch, and that error must surface instead
  // of the climbs quietly yielding empty communities.
  Graph g = KarateClub();
  for (size_t threads : {1, 4}) {
    OcaOptions opt = SmallGraphOptions();
    opt.num_threads = threads;
    opt.search.epsilon = -1.0;
    Status status = RunOca(g, opt).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_NE(status.message().find("epsilon"), std::string::npos)
        << status.ToString();
  }
}

TEST(OcaTest, CouplingBoundIsSharedBetweenSuppliedAndComputed) {
  Graph g = TwoCliquesBridge();
  // Exactly 1.0 is inadmissible on the supplied path...
  OcaOptions opt = SmallGraphOptions();
  opt.coupling_constant = 1.0;
  EXPECT_TRUE(RunOca(g, opt).status().IsInvalidArgument());
  // ...while the largest admissible value is accepted — so a computed c
  // (clamped to the same bound) can always be fed back in verbatim.
  opt.coupling_constant = kMaxCouplingConstant;
  auto supplied = RunOca(g, opt).value();
  EXPECT_DOUBLE_EQ(supplied.stats.coupling_constant, kMaxCouplingConstant);
}

TEST(OcaTest, TriangleBoundaryCouplingStaysAdmissible) {
  // K3's adjacency lambda_min is exactly -1, putting the computed
  // c = -1/lambda_min right at the inadmissible boundary 1.0; the
  // computed path must clamp/bias it below the bound, not error and not
  // run with c = 1.
  Graph g = testing::Triangle();
  OcaOptions opt = SmallGraphOptions();
  auto result = RunOca(g, opt).value();
  EXPECT_GT(result.stats.coupling_constant, 0.9);
  EXPECT_LE(result.stats.coupling_constant, kMaxCouplingConstant);
  EXPECT_NEAR(result.stats.lambda_min, -1.0, 1e-6);
  ASSERT_EQ(result.cover.size(), 1u);
  EXPECT_EQ(result.cover[0], (Community{0, 1, 2}));
}

TEST(OcaTest, SeedExhaustionHaltsImmediatelyWithItsOwnReason) {
  Graph g = TwoCliquesBridge();
  OcaOptions opt;
  opt.seed = 42;
  // Only exhaustion can stop this run: a huge seed budget, coverage
  // disabled, stagnation disabled.
  opt.halting.max_seeds = 10000;
  opt.halting.target_coverage = 2.0;
  opt.halting.stagnation_window = 0;
  auto result = RunOca(g, opt).value();
  EXPECT_EQ(result.stats.halting_reason, "seeds_exhausted");
  // Every expansion spends at least its seed node, so the loop cannot
  // have burned more seeds than there are nodes.
  EXPECT_LE(result.stats.seeds_expanded, g.num_nodes());
  EXPECT_EQ(result.cover.size(), 2u);
}

TEST(OcaTest, OrphanAssignmentCoversEverything) {
  Graph g = KarateClub();
  OcaOptions opt = SmallGraphOptions();
  opt.assign_orphans = true;
  auto result = RunOca(g, opt).value();
  EXPECT_TRUE(result.cover.UncoveredNodes(g.num_nodes()).empty());
}

TEST(OcaTest, StatsAreConsistent) {
  Graph g = KarateClub();
  auto result = RunOca(g, SmallGraphOptions()).value();
  EXPECT_GT(result.stats.seeds_expanded, 0u);
  EXPECT_GE(result.stats.raw_communities, result.cover.size());
  EXPECT_FALSE(result.stats.halting_reason.empty());
  EXPECT_GE(result.stats.coverage_fraction, 0.0);
  EXPECT_LE(result.stats.coverage_fraction, 1.0);
  EXPECT_GE(result.stats.TotalSeconds(), 0.0);
}

TEST(OcaTest, RecoversLfrCommunitiesWell) {
  LfrOptions lfr;
  lfr.num_nodes = 300;
  lfr.average_degree = 12.0;
  lfr.max_degree = 30;
  lfr.mixing = 0.15;
  lfr.min_community = 15;
  lfr.max_community = 50;
  lfr.seed = 5;
  auto bench = GenerateLfr(lfr).value();

  OcaOptions opt;
  opt.seed = 99;
  opt.halting.max_seeds = 400;
  opt.halting.target_coverage = 0.99;
  opt.halting.stagnation_window = 100;
  auto result = RunOca(bench.graph, opt).value();

  double theta = Theta(bench.ground_truth, result.cover).value();
  EXPECT_GT(theta, 0.6) << "OCA should recover sharp LFR communities; "
                        << result.cover.Summary();
}

TEST(OcaTest, RecoversDaisyPetalsAndCore) {
  DaisyTreeOptions dt;
  dt.daisy.p = 6;
  dt.daisy.q = 5;
  dt.daisy.n = 60;
  dt.daisy.alpha = 0.9;
  dt.daisy.beta = 0.9;
  dt.extra_daisies = 2;
  dt.gamma = 0.02;
  dt.seed = 3;
  auto bench = GenerateDaisyTree(dt).value();

  OcaOptions opt;
  opt.seed = 17;
  opt.halting.max_seeds = 600;
  opt.halting.target_coverage = 0.99;
  opt.halting.stagnation_window = 150;
  auto result = RunOca(bench.graph, opt).value();
  double theta = Theta(bench.ground_truth, result.cover).value();
  EXPECT_GT(theta, 0.5) << result.cover.Summary();
}

}  // namespace
}  // namespace oca

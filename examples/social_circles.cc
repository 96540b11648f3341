// Social-circles scenario: the introduction's motivating workload. A
// person belongs to several communities at once (friends, colleagues,
// family); partitioning algorithms force a single label, OCA does not.
//
// We synthesize a small social network of three dense circles that share
// a few "connector" people, run OCA and the two baselines, and compare
// their covers against the planted circles with the paper's Theta metric.
//
//   $ ./build/examples/social_circles [--seed=N]

#include <cstdio>
#include <string>

#include "baselines/cfinder.h"
#include "baselines/lfk.h"
#include "core/oca.h"
#include "graph/graph_builder.h"
#include "metrics/theta.h"
#include "util/flags.h"
#include "util/random.h"

namespace {

// Three circles of 12 people; persons 10, 11 sit in circles 0 and 1;
// person 22 sits in circles 1 and 2. Circle edges appear with
// probability 0.8, plus sparse random acquaintances.
struct SocialNetwork {
  oca::Graph graph;
  oca::Cover circles;
};

SocialNetwork MakeNetwork(uint64_t seed) {
  oca::Rng rng(seed);
  std::vector<oca::Community> circles = {
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
      {10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22},
      {22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33},
  };
  oca::GraphBuilder builder(34);
  for (const auto& circle : circles) {
    for (size_t i = 0; i < circle.size(); ++i) {
      for (size_t j = i + 1; j < circle.size(); ++j) {
        if (rng.NextBool(0.8)) builder.AddEdge(circle[i], circle[j]);
      }
    }
  }
  // Random acquaintances (noise).
  for (int k = 0; k < 15; ++k) {
    builder.AddEdge(static_cast<oca::NodeId>(rng.NextBounded(34)),
                    static_cast<oca::NodeId>(rng.NextBounded(34)));
  }
  oca::Cover truth(std::move(circles));
  truth.Canonicalize();
  return {builder.Build().value(), std::move(truth)};
}

void Report(const char* name, const oca::Cover& truth,
            const oca::Cover& found) {
  auto theta = oca::Theta(truth, found);
  std::printf("  %-8s: %2zu communities, Theta = %s\n", name, found.size(),
              theta.ok() ? std::to_string(theta.value()).c_str() : "n/a");
}

}  // namespace

int main(int argc, char** argv) {
  oca::FlagParser flags;
  if (auto s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  uint64_t seed =
      static_cast<uint64_t>(flags.GetInt("seed", 7).value_or(7));
  if (auto s = flags.CheckAllRead(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }

  SocialNetwork net = MakeNetwork(seed);
  std::printf("social network: %zu people, %zu ties, 3 planted circles "
              "with 3 connector people\n",
              net.graph.num_nodes(), net.graph.num_edges());

  oca::OcaOptions oca_opt;
  oca_opt.seed = seed;
  oca_opt.halting.max_seeds = 200;
  auto oca_run = oca::RunOca(net.graph, oca_opt);

  oca::LfkOptions lfk_opt;
  lfk_opt.seed = seed;
  auto lfk_run = oca::RunLfk(net.graph, lfk_opt);

  oca::CfinderOptions cf_opt;
  cf_opt.k = 3;
  auto cf_run = oca::RunCfinder(net.graph, cf_opt);

  std::printf("recovered community structure vs planted circles:\n");
  if (oca_run.ok()) Report("OCA", net.circles, oca_run.value().cover);
  if (lfk_run.ok()) Report("LFK", net.circles, lfk_run.value().cover);
  if (cf_run.ok()) Report("CFinder", net.circles, cf_run.value().cover);

  if (oca_run.ok()) {
    // Show the connectors' multi-membership.
    auto index = oca_run.value().cover.BuildNodeIndex(net.graph.num_nodes());
    for (oca::NodeId person : {10u, 11u, 22u}) {
      std::printf("  person %2u belongs to %zu found communities\n", person,
                  index[person].size());
    }
  }
  return 0;
}

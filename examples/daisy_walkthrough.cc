// Daisy walkthrough: reproduces the paper's Figure 4 qualitatively.
//
// Generates one daisy (Section V), runs OCA, LFK and CFinder, and prints
// which ground-truth petal/core each found community matches best — the
// textual equivalent of the paper's picture of "typical communities
// found in the daisy graph".
//
//   $ ./build/examples/daisy_walkthrough [--petals=5 --n=90 --seed=3]

#include <cstdio>

#include "baselines/cfinder.h"
#include "baselines/lfk.h"
#include "core/oca.h"
#include "gen/daisy.h"
#include "metrics/similarity.h"
#include "metrics/theta.h"
#include "util/flags.h"

namespace {

void DescribeCover(const char* name, const oca::Cover& truth,
                   const oca::Cover& found) {
  std::printf("%s found %zu communities:\n", name, found.size());
  for (size_t j = 0; j < found.size() && j < 12; ++j) {
    // Best-matching ground-truth community.
    double best_rho = 0.0;
    size_t best_i = 0;
    for (size_t i = 0; i < truth.size(); ++i) {
      double rho = oca::RhoSimilarity(truth[i], found[j]);
      if (rho > best_rho) {
        best_rho = rho;
        best_i = i;
      }
    }
    // In our layout the core is the largest community (it has
    // |{v=0 mod p}| + |{v=0 mod q}| members), petals are the rest.
    bool is_core = truth[best_i].size() == truth.MaxCommunitySize();
    std::printf("  community %2zu (size %3zu) ~ %s#%zu  rho=%.2f\n", j,
                found[j].size(), is_core ? "core " : "petal", best_i,
                best_rho);
  }
  auto theta = oca::Theta(truth, found);
  std::printf("  => Theta = %.3f\n\n", theta.ok() ? theta.value() : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  oca::FlagParser flags;
  if (auto s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  oca::DaisyOptions daisy;
  daisy.p = static_cast<uint32_t>(flags.GetInt("petals", 5).value_or(5)) + 1;
  daisy.q = 5;
  daisy.n = static_cast<uint32_t>(flags.GetInt("n", 90).value_or(90));
  daisy.alpha = 0.85;
  daisy.beta = 0.85;
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 3).value_or(3));
  if (auto s = flags.CheckAllRead(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }

  oca::Rng rng(seed);
  auto bench_result = oca::GenerateDaisy(daisy, &rng);
  if (!bench_result.ok()) {
    std::fprintf(stderr, "daisy generation failed: %s\n",
                 bench_result.status().ToString().c_str());
    return 1;
  }
  const auto& bench = bench_result.value();
  std::printf("daisy: %zu nodes, %zu edges, %zu ground-truth communities "
              "(%u petals + core, overlapping at v=0 mod %u)\n\n",
              bench.graph.num_nodes(), bench.graph.num_edges(),
              bench.ground_truth.size(), daisy.p - 1, daisy.q);

  oca::OcaOptions oca_opt;
  oca_opt.seed = seed;
  oca_opt.halting.max_seeds = 300;
  oca_opt.halting.stagnation_window = 80;
  auto oca_run = oca::RunOca(bench.graph, oca_opt);
  if (oca_run.ok()) {
    DescribeCover("OCA", bench.ground_truth, oca_run.value().cover);
  }

  oca::LfkOptions lfk_opt;
  lfk_opt.seed = seed;
  auto lfk_run = oca::RunLfk(bench.graph, lfk_opt);
  if (lfk_run.ok()) {
    DescribeCover("LFK", bench.ground_truth, lfk_run.value().cover);
  }

  oca::CfinderOptions cf_opt;
  cf_opt.k = 3;
  cf_opt.max_cliques = 2000000;
  auto cf_run = oca::RunCfinder(bench.graph, cf_opt);
  if (cf_run.ok()) {
    DescribeCover("CFinder", bench.ground_truth, cf_run.value().cover);
  } else {
    std::printf("CFinder aborted: %s\n",
                cf_run.status().ToString().c_str());
  }
  return 0;
}

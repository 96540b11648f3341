// Large-scale run: OCA on the Wikipedia surrogate (see DESIGN.md §3 for
// the substitution rationale). Demonstrates that the implementation
// sustains large graphs with bounded memory — the paper's headline
// scalability claim (16.9M nodes / 176M edges in < 3.25 h on 2008
// hardware; we scale the surrogate to the available machine).
//
//   $ ./build/examples/wikipedia_scale [--nodes=200000 --threads=0]

#include <cstdio>

#include "core/oca.h"
#include "gen/wikipedia_surrogate.h"
#include "graph/degree_stats.h"
#include "metrics/cover_stats.h"
#include "metrics/f1_overlap.h"
#include "util/flags.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  oca::FlagParser flags;
  if (auto s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  oca::WikipediaSurrogateOptions gen;
  gen.num_nodes = static_cast<size_t>(
      flags.GetInt("nodes", 200000).value_or(200000));
  gen.num_topics = gen.num_nodes / 500;
  gen.seed = static_cast<uint64_t>(flags.GetInt("seed", 42).value_or(42));
  const auto threads = static_cast<size_t>(
      flags.GetInt("threads", 0).value_or(0));  // 0 = hardware
  if (auto s = flags.CheckAllRead(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }

  std::printf("generating Wikipedia surrogate (%zu nodes)...\n",
              gen.num_nodes);
  oca::Timer gen_timer;
  auto bench_result = oca::GenerateWikipediaSurrogate(gen);
  if (!bench_result.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 bench_result.status().ToString().c_str());
    return 1;
  }
  const auto& bench = bench_result.value();
  auto dstats = oca::ComputeDegreeStats(bench.graph);
  std::printf("generated in %s: %s\n",
              oca::FormatDuration(gen_timer.ElapsedSeconds()).c_str(),
              dstats.ToString().c_str());
  std::printf("graph memory: %.1f MB\n",
              static_cast<double>(bench.graph.MemoryBytes()) / 1e6);

  oca::OcaOptions opt;
  opt.seed = gen.seed;
  opt.num_threads = threads;
  opt.halting.max_seeds = gen.num_nodes / 100;
  opt.halting.target_coverage = 0.5;  // topics cover a minority of nodes
  opt.halting.stagnation_window = 500;
  opt.search.max_community_size = 2000;  // keep climbs bounded on hubs

  oca::Timer run_timer;
  auto run = oca::RunOca(bench.graph, opt);
  if (!run.ok()) {
    std::fprintf(stderr, "OCA failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const auto& result = run.value();
  double seconds = run_timer.ElapsedSeconds();

  std::printf("\nOCA finished in %s (spectral %s, search %s, post %s)\n",
              oca::FormatDuration(seconds).c_str(),
              oca::FormatDuration(result.stats.seconds_spectral).c_str(),
              oca::FormatDuration(result.stats.seconds_search).c_str(),
              oca::FormatDuration(result.stats.seconds_postprocess).c_str());
  std::printf("throughput: %.2fM edges/s of graph scanned per second of "
              "total runtime\n",
              static_cast<double>(bench.graph.num_edges()) / seconds / 1e6);
  std::printf("halting: %s after %zu seeds; coverage %.1f%%\n",
              result.stats.halting_reason.c_str(),
              result.stats.seeds_expanded,
              result.stats.coverage_fraction * 100.0);

  auto cstats = oca::ComputeCoverStats(bench.graph, result.cover);
  std::printf("cover: %s\n", cstats.ToString().c_str());

  auto f1 = oca::AverageF1(bench.ground_truth, result.cover);
  if (f1.ok()) {
    std::printf("avg best-match F1 vs planted topics: %.3f\n", f1.value());
  }
  return 0;
}

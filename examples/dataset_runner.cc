// Table-1-style dataset runner: ingests a real edge list in the SNAP
// convention, runs OCA unweighted and (with deterministic synthetic
// weights) weighted, and prints one quality/speed row per run — the
// reporting shape of the paper's Table 1 (graph, |V|, |E|,
// #communities, time) extended with coverage and overlap columns.
//
//   $ ./build/examples/dataset_runner                     # data/karate.txt
//   $ ./build/examples/dataset_runner --data=facebook_combined.txt
//   $ ./build/examples/dataset_runner --data=soc-wiki.txt --threads=4
//
// Weighted inputs (a third column on data lines) are used as-is; for
// two-column inputs the weighted row synthesizes hash weights in
// [0.5, 2.0) so the weighted pipeline is exercised on every dataset.
// Exits non-zero on I/O or pipeline failure, so CI can gate on it.

#include <cstdio>
#include <string>

#include "core/oca.h"
#include "gen/weight_assign.h"
#include "io/snap.h"
#include "metrics/cover_stats.h"
#include "metrics/modularity.h"
#include "util/flags.h"
#include "util/timer.h"

namespace {

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name = name.substr(0, dot);
  return name;
}

int RunRow(const std::string& name, const oca::Graph& graph, bool weighted,
           uint64_t seed, size_t threads) {
  oca::OcaOptions options;
  options.seed = seed;
  options.num_threads = threads;
  options.search.fitness.use_weights = weighted;

  oca::Timer timer;
  auto run = oca::RunOca(graph, options);
  const double seconds = timer.ElapsedSeconds();
  if (!run.ok()) {
    std::fprintf(stderr, "OCA failed on %s (%s): %s\n", name.c_str(),
                 weighted ? "weighted" : "unweighted",
                 run.status().ToString().c_str());
    return 1;
  }
  const oca::CoverStats stats =
      oca::ComputeCoverStats(graph, run.value().cover);
  auto modularity = oca::OverlappingModularity(graph, run.value().cover);
  std::printf("%-20s %8zu %10zu  %3s %6zu   %5.1f%%     %4.2f   %7.4f  %8.3f\n",
              name.c_str(), graph.num_nodes(), graph.num_edges(),
              weighted ? "yes" : "no", stats.num_communities,
              100.0 * stats.coverage_fraction, stats.average_memberships,
              modularity.ok() ? modularity.value() : 0.0, seconds);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  oca::FlagParser flags;
  if (auto s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  const std::string path = flags.GetString("data", "data/karate.txt");
  const uint64_t seed =
      static_cast<uint64_t>(flags.GetInt("seed", 42).value_or(42));
  const size_t threads =
      static_cast<size_t>(flags.GetInt("threads", 1).value_or(1));
  if (auto s = flags.CheckAllRead(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }

  auto loaded = oca::ReadSnapFile(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
    return 1;
  }
  const oca::SnapGraph& snap = loaded.value();
  std::printf("# %s: %llu data lines, %llu self-loops dropped, "
              "weights in file: %s\n",
              path.c_str(),
              static_cast<unsigned long long>(snap.edges_listed),
              static_cast<unsigned long long>(snap.self_loops_dropped),
              snap.weighted ? "yes" : "no");
  std::printf("# %-18s %8s %10s  %3s %6s   %6s %8s   %7s  %8s\n", "dataset",
              "n", "m", "wtd", "comms", "cover", "avg_mem", "mod", "secs");

  const std::string name = BaseName(path);
  int rc = RunRow(name, snap.graph, /*weighted=*/false, seed, threads);
  if (rc != 0) return rc;

  // Weighted row: file weights when present, hashed synthetic weights
  // otherwise (deterministic in the seed — see gen/weight_assign.h).
  if (snap.weighted) {
    return RunRow(name, snap.graph, /*weighted=*/true, seed, threads);
  }
  oca::WeightAssignOptions wopt;
  wopt.seed = seed;
  auto weighted_graph = oca::AssignWeights(snap.graph, wopt);
  if (!weighted_graph.ok()) {
    std::fprintf(stderr, "weight assignment failed: %s\n",
                 weighted_graph.status().ToString().c_str());
    return 1;
  }
  return RunRow(name, weighted_graph.value(), /*weighted=*/true, seed,
                threads);
}

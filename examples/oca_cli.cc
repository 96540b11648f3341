// oca_cli: end-to-end command-line tool. Loads a SNAP-format edge list,
// runs OCA (or a baseline), writes the cover, optionally scores it
// against a ground-truth cover file.
//
//   $ ./build/examples/oca_cli --input=graph.txt --output=cover.txt
//         --algorithm=oca [--truth=truth.txt] [--threads=4] [--seed=42]
//
// This is the binary a downstream user would run on the public SNAP
// datasets (com-Amazon, com-DBLP, ...).

#include <cstdio>
#include <string>

#include "baselines/cfinder.h"
#include "baselines/lfk.h"
#include "core/oca.h"
#include "graph/degree_stats.h"
#include "io/cover_io.h"
#include "io/edge_list.h"
#include "metrics/cover_stats.h"
#include "metrics/f1_overlap.h"
#include "metrics/theta.h"
#include "util/flags.h"
#include "util/timer.h"

namespace {

int Fail(const oca::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  oca::FlagParser flags;
  if (auto s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  std::string input = flags.GetString("input", "");
  const uint64_t seed =
      static_cast<uint64_t>(flags.GetInt("seed", 42).value_or(42));
  const std::string algorithm = flags.GetString("algorithm", "oca");
  const size_t threads =
      static_cast<size_t>(flags.GetInt("threads", 1).value_or(1));
  const auto alpha = flags.GetDouble("alpha", 1.0);
  const auto k = static_cast<uint32_t>(flags.GetInt("k", 3).value_or(3));
  const std::string output = flags.GetString("output", "");
  const std::string truth_path = flags.GetString("truth", "");
  if (auto s = flags.CheckAllRead(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }
  if (input.empty()) {
    std::fprintf(stderr,
                 "usage: oca_cli --input=<edge list> [--output=<cover>] "
                 "[--algorithm=oca|lfk|cfinder] [--truth=<cover>] "
                 "[--seed=N] [--threads=N] [--k=3] [--alpha=1.0]\n");
    return 2;
  }

  oca::Timer load_timer;
  auto loaded = oca::ReadEdgeListFile(input);
  if (!loaded.ok()) return Fail(loaded.status());
  const oca::Graph& graph = loaded.value().graph;
  const auto& original_ids = loaded.value().original_ids;
  std::printf("loaded %s in %s: %s\n", input.c_str(),
              oca::FormatDuration(load_timer.ElapsedSeconds()).c_str(),
              oca::ComputeDegreeStats(graph).ToString().c_str());

  oca::Timer run_timer;
  oca::Cover cover;
  if (algorithm == "oca") {
    oca::OcaOptions opt;
    opt.seed = seed;
    opt.num_threads = threads;
    opt.halting.max_seeds = graph.num_nodes();
    opt.halting.target_coverage = 0.95;
    opt.halting.stagnation_window = 200;
    auto run = oca::RunOca(graph, opt);
    if (!run.ok()) return Fail(run.status());
    cover = std::move(run.value().cover);
    std::printf("c = %.4f, %zu seeds, halting: %s\n",
                run.value().stats.coupling_constant,
                run.value().stats.seeds_expanded,
                run.value().stats.halting_reason.c_str());
  } else if (algorithm == "lfk") {
    oca::LfkOptions opt;
    opt.seed = seed;
    if (!alpha.ok()) return Fail(alpha.status());
    opt.alpha = alpha.value();
    auto run = oca::RunLfk(graph, opt);
    if (!run.ok()) return Fail(run.status());
    cover = std::move(run.value().cover);
  } else if (algorithm == "cfinder") {
    oca::CfinderOptions opt;
    opt.k = k;
    opt.max_cliques = 10000000;
    auto run = oca::RunCfinder(graph, opt);
    if (!run.ok()) return Fail(run.status());
    cover = std::move(run.value().cover);
  } else {
    std::fprintf(stderr, "unknown algorithm '%s'\n", algorithm.c_str());
    return 2;
  }
  std::printf("%s finished in %s\n", algorithm.c_str(),
              oca::FormatDuration(run_timer.ElapsedSeconds()).c_str());
  std::printf("cover: %s\n",
              oca::ComputeCoverStats(graph, cover).ToString().c_str());

  // The loader densifies node ids in first-seen order; translate the
  // cover back to the file's original ids so the output and the
  // ground-truth comparison live in the same id space.
  {
    oca::Cover remapped;
    for (const auto& community : cover) {
      oca::Community original;
      original.reserve(community.size());
      for (oca::NodeId v : community) {
        original.push_back(static_cast<oca::NodeId>(original_ids[v]));
      }
      remapped.Add(std::move(original));
    }
    remapped.Canonicalize();
    cover = std::move(remapped);
  }

  if (!output.empty()) {
    if (auto s = oca::WriteCoverFile(cover, output); !s.ok()) {
      return Fail(s.status());
    }
    std::printf("cover written to %s\n", output.c_str());
  }

  if (!truth_path.empty()) {
    auto truth = oca::ReadCoverFile(truth_path);
    if (!truth.ok()) return Fail(truth.status());
    auto theta = oca::Theta(truth.value(), cover);
    auto f1 = oca::AverageF1(truth.value(), cover);
    std::printf("vs ground truth: Theta=%.3f avgF1=%.3f\n",
                theta.ok() ? theta.value() : -1.0,
                f1.ok() ? f1.value() : -1.0);
  }
  return 0;
}

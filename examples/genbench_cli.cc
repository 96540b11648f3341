// genbench_cli: generates benchmark graphs + ground-truth covers to
// files, completing the downstream workflow with oca_cli:
//
//   $ ./build/examples/genbench_cli --family=lfr --nodes=10000 --mu=0.3
//         --graph=lfr.txt --truth=lfr_truth.txt
//   $ ./build/examples/oca_cli --input=lfr.txt --truth=lfr_truth.txt
//
// Families: lfr (plus --overlap-nodes/--overlap-memberships), daisy,
// ba (Barabasi-Albert), er (Erdos-Renyi), wikipedia (surrogate).

#include <cstdio>
#include <string>

#include "gen/barabasi_albert.h"
#include "gen/daisy.h"
#include "gen/erdos_renyi.h"
#include "gen/lfr.h"
#include "gen/wikipedia_surrogate.h"
#include "graph/degree_stats.h"
#include "io/cover_io.h"
#include "io/edge_list.h"
#include "util/flags.h"

namespace {

int Fail(const oca::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  oca::FlagParser flags;
  if (auto s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  std::string family = flags.GetString("family", "");
  std::string graph_path = flags.GetString("graph", "");
  const std::string truth_path = flags.GetString("truth", "");
  const uint64_t seed =
      static_cast<uint64_t>(flags.GetInt("seed", 42).value_or(42));
  const size_t nodes =
      static_cast<size_t>(flags.GetInt("nodes", 10000).value_or(10000));
  const auto mu = flags.GetDouble("mu", 0.3);
  const auto avg = flags.GetDouble("avg-degree", 20.0);
  const auto overlap_nodes = static_cast<size_t>(
      flags.GetInt("overlap-nodes", 0).value_or(0));
  const auto overlap_memberships = static_cast<uint32_t>(
      flags.GetInt("overlap-memberships", 2).value_or(2));
  const auto edges_per_node = static_cast<size_t>(
      flags.GetInt("edges-per-node", 5).value_or(5));
  const auto p = flags.GetDouble("p", 0.001);
  if (auto s = flags.CheckAllRead(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }
  if (family.empty() || graph_path.empty()) {
    std::fprintf(stderr,
                 "usage: genbench_cli --family=lfr|daisy|ba|er|wikipedia "
                 "--graph=<out> [--truth=<out>] [--nodes=N] [--seed=N] "
                 "[--mu=0.3] [--avg-degree=20] [--overlap-nodes=0] "
                 "[--overlap-memberships=2] [--p=0.01] [--edges-per-node=5]\n");
    return 2;
  }

  oca::Graph graph;
  oca::Cover truth;
  bool has_truth = false;

  if (family == "lfr") {
    oca::LfrOptions opt;
    opt.num_nodes = nodes;
    opt.seed = seed;
    if (!mu.ok()) return Fail(mu.status());
    if (!avg.ok()) return Fail(avg.status());
    opt.mixing = mu.value();
    opt.average_degree = avg.value();
    opt.max_degree = static_cast<uint32_t>(avg.value() * 2.5);
    opt.overlapping_nodes = overlap_nodes;
    opt.overlap_memberships = overlap_memberships;
    auto bench = oca::GenerateLfr(opt);
    if (!bench.ok()) return Fail(bench.status());
    graph = std::move(bench.value().graph);
    truth = std::move(bench.value().ground_truth);
    has_truth = true;
  } else if (family == "daisy") {
    oca::DaisyTreeOptions opt;
    opt.daisy.n = 200;
    opt.extra_daisies =
        static_cast<uint32_t>(nodes / opt.daisy.n > 0 ? nodes / opt.daisy.n - 1
                                                      : 0);
    opt.seed = seed;
    auto bench = oca::GenerateDaisyTree(opt);
    if (!bench.ok()) return Fail(bench.status());
    graph = std::move(bench.value().graph);
    truth = std::move(bench.value().ground_truth);
    has_truth = true;
  } else if (family == "ba") {
    oca::Rng rng(seed);
    auto g = oca::BarabasiAlbert(nodes, edges_per_node, &rng);
    if (!g.ok()) return Fail(g.status());
    graph = std::move(g).value();
  } else if (family == "er") {
    oca::Rng rng(seed);
    if (!p.ok()) return Fail(p.status());
    auto g = oca::ErdosRenyi(nodes, p.value(), &rng);
    if (!g.ok()) return Fail(g.status());
    graph = std::move(g).value();
  } else if (family == "wikipedia") {
    oca::WikipediaSurrogateOptions opt;
    opt.num_nodes = nodes;
    opt.num_topics = nodes / 500 + 1;
    opt.seed = seed;
    auto bench = oca::GenerateWikipediaSurrogate(opt);
    if (!bench.ok()) return Fail(bench.status());
    graph = std::move(bench.value().graph);
    truth = std::move(bench.value().ground_truth);
    has_truth = true;
  } else {
    std::fprintf(stderr, "unknown family '%s'\n", family.c_str());
    return 2;
  }

  std::printf("generated %s: %s\n", family.c_str(),
              oca::ComputeDegreeStats(graph).ToString().c_str());
  if (auto s = oca::WriteEdgeListFile(graph, graph_path); !s.ok()) {
    return Fail(s);
  }
  std::printf("graph written to %s\n", graph_path.c_str());

  if (!truth_path.empty()) {
    if (!has_truth) {
      std::fprintf(stderr, "family '%s' has no ground truth\n",
                   family.c_str());
      return 2;
    }
    if (auto s = oca::WriteCoverFile(truth, truth_path); !s.ok()) {
      return Fail(s.status());
    }
    std::printf("ground truth (%zu communities) written to %s\n",
                truth.size(), truth_path.c_str());
  }
  return 0;
}

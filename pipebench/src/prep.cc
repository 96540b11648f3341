// pipebench_prep: writes one workload's inputs into a directory, from a
// seed alone. Runs as its own process before the measured one, so its
// time and memory are never counted.
//
//   pipebench_prep --kind=text|weighted --nodes=N --seed=S --out=DIR
//
// text      graph.txt  SNAP-style edge list of an overlapping LFR graph
// weighted  graph.ocag .ocag v2 of the same family with hashed weights,
//           edges.txt  "u v w" lines, w as a hex float (the weights the
//                      measured process must find in the mapped graph)
// both      truth.txt  the planted cover, one community per line
//           requests.txt  the seeded request mix (one request per line)

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gen/lfr.h"
#include "gen/weight_assign.h"
#include "io/cover_io.h"
#include "io/edge_list.h"
#include "io/graph_serialize.h"
#include "util/flags.h"
#include "util/random.h"

namespace {

constexpr size_t kRequests = 20000;

int Fail(const oca::Status& status) {
  std::fprintf(stderr, "pipebench_prep: %s\n", status.ToString().c_str());
  return 1;
}

// Skewed node ids: a seeded permutation indexed by n * u^3, so a few
// hundred nodes take most requests (the shape of a popularity skew).
// COMMUNITIES 50%, PATHS 30%, SIBLINGS at level 1 20%.
bool WriteRequests(size_t n, uint64_t seed, const std::string& path) {
  oca::Rng rng(seed ^ 0x5E5E5E5Eull);
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  for (size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < kRequests; ++i) {
    const double u = rng.NextDouble();
    const uint32_t node = perm[static_cast<size_t>(
        std::floor(static_cast<double>(n) * u * u * u))];
    const uint64_t verb = rng.NextBounded(10);
    if (verb < 5) {
      std::fprintf(f, "COMMUNITIES %u\n", node);
    } else if (verb < 8) {
      std::fprintf(f, "PATHS %u\n", node);
    } else {
      std::fprintf(f, "SIBLINGS %u 1\n", node);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  oca::FlagParser flags;
  if (auto s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  const std::string kind = flags.GetString("kind", "");
  const std::string out = flags.GetString("out", "");
  const auto nodes = flags.GetInt("nodes", 0);
  const auto seed = flags.GetInt("seed", -1);
  if ((kind != "text" && kind != "weighted") || out.empty() || !nodes.ok() ||
      nodes.value() <= 0 || !seed.ok() || seed.value() < 0) {
    std::fprintf(stderr,
                 "usage: pipebench_prep --kind=text|weighted --nodes=N "
                 "--seed=S --out=DIR\n");
    return 2;
  }

  // The overlapping LFR family of the README: average degree 20, max 50,
  // mu = 0.3, community sizes 20..100, 10% of nodes in 2 communities.
  oca::LfrOptions lfr;
  lfr.num_nodes = static_cast<size_t>(nodes.value());
  lfr.average_degree = 20.0;
  lfr.max_degree = 50;
  lfr.mixing = 0.3;
  lfr.overlapping_nodes = lfr.num_nodes / 10;
  lfr.overlap_memberships = 2;
  lfr.seed = static_cast<uint64_t>(seed.value());
  auto bench = oca::GenerateLfr(lfr);
  if (!bench.ok()) return Fail(bench.status());
  const oca::Graph& graph = bench.value().graph;

  if (kind == "text") {
    if (auto s = oca::WriteEdgeListFile(graph, out + "/graph.txt"); !s.ok()) {
      return Fail(s);
    }
  } else {
    oca::WeightAssignOptions weights;
    weights.scheme = oca::WeightScheme::kUniformHash;
    weights.seed = lfr.seed;
    auto weighted = oca::AssignWeights(graph, weights);
    if (!weighted.ok()) return Fail(weighted.status());
    if (auto s = oca::WriteGraphBinaryFile(weighted.value(),
                                           out + "/graph.ocag");
        !s.ok()) {
      return Fail(s);
    }
    std::FILE* f = std::fopen((out + "/edges.txt").c_str(), "w");
    if (f == nullptr) return Fail(oca::Status::IOError("cannot write edges"));
    weighted.value().ForEachWeightedEdge(
        [&](oca::NodeId u, oca::NodeId v, double w) {
          std::fprintf(f, "%u %u %a\n", u, v, w);
        });
    if (std::fclose(f) != 0) {
      return Fail(oca::Status::IOError("cannot write edges"));
    }
  }
  if (auto s = oca::WriteCoverFile(bench.value().ground_truth,
                                   out + "/truth.txt");
      !s.ok()) {
    return Fail(s.status());
  }
  if (!WriteRequests(graph.num_nodes(), lfr.seed, out + "/requests.txt")) {
    return Fail(oca::Status::IOError("cannot write requests"));
  }
  std::printf("prepared %s n=%zu m=%zu\n", kind.c_str(), graph.num_nodes(),
              graph.num_edges());
  return 0;
}

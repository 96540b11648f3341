// End-to-end out-of-core pipeline driver: generate a powerlaw graph to
// disk (gen/streaming_generator.h), stream-build the CSR file, mmap it
// back, and analyze it — optionally with the whole generate+build phase
// running under a self-imposed address-space cap that proves no stage
// ever materializes the edge list in memory.
//
//   outofcore_pipeline --nodes=100000 --prefix=/tmp/g
//       --rlimit_as_delta_mb=64        # cap growth during generation
//
// The cap is a DELTA over the process's VmPeak at startup: the soft
// RLIMIT_AS is lowered to (VmPeak + delta) before generation and raised
// back before the mmap phase (the mapping itself is address space, and
// a capped mmap of a big graph would fail by design, not by bug). Pick
// a delta well below the raw edge-list size (16 bytes x edges) and any
// edge-linear allocation aborts the run with ENOMEM — this is the CI
// out-of-core smoke in executable form.
//
// Analysis (--analyze):
//   kcore      degeneracy + a digest over all core numbers (fast, any
//              size; the default)
//   hierarchy  full RecursiveHierarchy::Digest() (small graphs; this
//              is the value CI compares byte-for-byte across backends)
//   none       build/open only
//
// Backends (--backend): "mmap" opens the .ocag file zero-copy through
// OpenMmapGraph; "memory" reads it into owned vectors. Same file, same
// printed digests — the cross-backend equivalence contract, checkable
// from the shell with two runs and cmp.

#include <sys/resource.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/recursive_hierarchy.h"
#include "gen/streaming_generator.h"
#include "graph/k_core.h"
#include "graph/mmap_graph.h"
#include "io/graph_serialize.h"
#include "util/flags.h"
#include "util/timer.h"

namespace {

/// VmPeak in bytes from /proc/self/status (0 if unavailable).
uint64_t VmPeakBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmPeak:", 0) == 0) {
      std::istringstream fields(line.substr(7));
      uint64_t kib = 0;
      fields >> kib;
      return kib * 1024;
    }
  }
  return 0;
}

/// FNV-1a over a u32 sequence: order-sensitive, backend-comparable.
uint64_t DigestU32(const std::vector<uint32_t>& values) {
  uint64_t h = 1469598103934665603ull;
  for (uint32_t v : values) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (v >> shift) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

int Fail(const oca::Status& status, const char* what) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  oca::FlagParser flags;
  if (oca::Status s = flags.Parse(argc, argv); !s.ok()) {
    return Fail(s, "flags");
  }
  const uint64_t nodes =
      static_cast<uint64_t>(flags.GetInt("nodes", 100000).value());
  const std::string prefix =
      flags.GetString("prefix", "/tmp/oca_outofcore");
  const std::string backend = flags.GetString("backend", "mmap");
  const std::string analyze = flags.GetString("analyze", "kcore");
  const bool generate = flags.GetBool("generate", true);
  const int64_t as_delta_mb =
      flags.GetInt("rlimit_as_delta_mb", 0).value();
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1).value());
  const auto threads =
      static_cast<size_t>(flags.GetInt("threads", 0).value());
  oca::StreamingGeneratorOptions gen;
  gen.num_nodes = nodes;
  gen.gamma = flags.GetDouble("gamma", 2.5).value();
  gen.min_degree =
      static_cast<uint64_t>(flags.GetInt("min_degree", 2).value());
  gen.max_degree =
      static_cast<uint64_t>(flags.GetInt("max_degree", 0).value());
  gen.swaps_per_edge = flags.GetDouble("swaps_per_edge", 1.0).value();
  gen.seed = seed;
  gen.buffer_bytes =
      static_cast<size_t>(flags.GetInt("buffer_mb", 8).value()) << 20;
  gen.keep_intermediates = flags.GetBool("keep_intermediates", false);
  if (oca::Status s = flags.CheckAllRead(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }

  const std::string graph_path = prefix + ".ocag";

  if (generate) {
    // Cap address-space growth for the duration of the generate+build
    // phase: soft limit only, so we can raise it back for the mmap.
    struct rlimit saved;
    bool capped = false;
    if (as_delta_mb > 0) {
      const uint64_t peak = VmPeakBytes();
      if (peak == 0) {
        std::fprintf(stderr, "cannot read VmPeak; refusing to cap\n");
        return 1;
      }
      if (getrlimit(RLIMIT_AS, &saved) != 0) return 1;
      struct rlimit capped_limit = saved;
      capped_limit.rlim_cur =
          peak + (static_cast<uint64_t>(as_delta_mb) << 20);
      if (setrlimit(RLIMIT_AS, &capped_limit) != 0) return 1;
      capped = true;
      std::printf("as_cap_bytes: %" PRIu64 " (VmPeak %" PRIu64
                  " + %" PRId64 " MiB)\n",
                  static_cast<uint64_t>(capped_limit.rlim_cur), peak,
                  as_delta_mb);
    }

    oca::Timer timer;
    auto gen_result = oca::GenerateGraphToFile(gen, prefix);
    const double gen_seconds = timer.ElapsedSeconds();
    if (capped && setrlimit(RLIMIT_AS, &saved) != 0) return 1;
    if (!gen_result.ok()) return Fail(gen_result.status(), "generate");

    std::printf("generated: nodes=%" PRIu64 " edges=%" PRIu64
                " repairs=%" PRIu64 " swaps=%" PRIu64 "/%" PRIu64
                " chunks=%" PRIu64 " in %.2fs\n",
                gen_result->num_nodes, gen_result->num_edges,
                gen_result->degree_repairs, gen_result->swaps_applied,
                gen_result->swap_attempts,
                gen_result->final_build.num_chunks, gen_seconds);
  }

  oca::Timer open_timer;
  oca::Result<oca::Graph> opened =
      backend == "memory" ? oca::ReadGraphBinaryFile(graph_path)
                          : oca::OpenMmapGraph(graph_path);
  if (!opened.ok()) return Fail(opened.status(), "open");
  const oca::Graph& graph = *opened;
  std::printf("backend: %s | open %.3fs | nodes=%zu edges=%zu\n",
              backend.c_str(), open_timer.ElapsedSeconds(), graph.num_nodes(),
              graph.num_edges());

  if (analyze == "kcore" || analyze == "hierarchy") {
    oca::Timer timer;
    const std::vector<uint32_t> cores = oca::CoreNumbers(graph);
    std::printf("degeneracy: %u (k-core %.3fs)\n",
                oca::Degeneracy(graph), timer.ElapsedSeconds());
    std::printf("kcore_digest: %016" PRIx64 "\n", DigestU32(cores));
  }
  if (analyze == "hierarchy") {
    oca::RecursiveHierarchyOptions options;
    options.base.seed = seed;
    options.base.halting.max_seeds = 500;
    options.base.halting.target_coverage = 0.97;
    options.base.halting.stagnation_window = 120;
    options.num_threads = threads;
    oca::Timer timer;
    auto tree = oca::BuildRecursiveHierarchy(graph, options);
    if (!tree.ok()) return Fail(tree.status(), "hierarchy");
    std::printf("hierarchy_digest: %016" PRIx64 " (%.2fs)\n",
                tree->Digest(), timer.ElapsedSeconds());
  }
  return 0;
}

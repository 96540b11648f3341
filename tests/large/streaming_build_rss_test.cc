// Peak-memory regression test for the chunked streaming CSR builder
// (CTest label "large"). The builder's whole reason to exist is that a
// build never holds edge-linear state in RAM; this test makes that a
// measured number, not a comment. A forked child builds a ~2M-edge
// graph from a procedural edge source with a 1 MiB gather buffer; the
// parent reads the child's peak RSS from wait4's rusage and asserts the
// growth over the parent's RSS at fork stays well below the 16 MiB the
// raw edge list alone would need (GraphBuilder::Build would hold ~3x
// that). The edge stream is generated on the fly, so not even the test
// driver ever materializes the edges.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "graph/graph_stream_build.h"
#include "graph/mmap_graph.h"
#include "testing/temp_path.h"

namespace oca {
namespace {

// Circulant graph C(n, k): node v adjacent to v+1..v+k (mod n), emitted
// procedurally in O(1) state. n*k edges total, each exactly once.
class CirculantEdgeSource final : public EdgeSource {
 public:
  CirculantEdgeSource(NodeId n, NodeId k) : n_(n), k_(k) {}

  Status Rewind() override {
    v_ = 0;
    step_ = 1;
    return Status::OK();
  }

  Result<size_t> ReadBatch(std::span<Edge> out) override {
    size_t filled = 0;
    while (filled < out.size() && v_ < n_) {
      out[filled++] = {v_, static_cast<NodeId>((v_ + step_) % n_)};
      if (++step_ > k_) {
        step_ = 1;
        ++v_;
      }
    }
    return filled;
  }

 private:
  NodeId n_, k_;
  NodeId v_ = 0;
  NodeId step_ = 1;
};

/// Current VmRSS in bytes from /proc/self/status.
uint64_t CurrentRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      uint64_t kib = 0;
      fields >> kib;
      return kib * 1024;
    }
  }
  return 0;
}

TEST(StreamingBuildRssTest, PeakRssStaysBelowEdgeListSize) {
  const NodeId n = 200000;
  const NodeId k = 10;  // 2M edges
  const uint64_t edge_list_bytes = uint64_t{n} * k * sizeof(Edge);  // 16 MiB
  const std::string path =
      testing::TestTempPath("rss_circulant.ocag");

  const uint64_t parent_rss = CurrentRssBytes();
  ASSERT_GT(parent_rss, 0u);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: the measured build. _exit so no gtest/atexit machinery
    // pollutes the rusage numbers or double-flushes parent buffers.
    CirculantEdgeSource source(n, k);
    StreamBuildOptions options;
    options.buffer_bytes = 1u << 20;
    auto stats = BuildGraphFileFromEdges(n, source, path, options);
    const bool ok = stats.ok() && stats->num_edges == uint64_t{n} * k;
    _exit(ok ? 0 : 1);
  }

  int wstatus = 0;
  struct rusage usage;
  ASSERT_EQ(wait4(pid, &wstatus, 0, &usage), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0) << "child build failed";

  // ru_maxrss is KiB on Linux. The child starts from at most the
  // parent's RSS (copy-on-write; untouched pages are never charged to
  // it), so inherited-baseline + one edge list is a hard ceiling on a
  // genuinely streaming build. Expected child state: 200k u64 incidence
  // counters (~1.6 MiB) + 1 MiB gather buffer + I/O buffers. The raw
  // edge list is 16 MiB; an in-memory build holds ~3 edge-linear copies
  // (~48 MiB). Any edge-linear allocation sneaking back into the
  // streaming path blows straight through this bound.
  const uint64_t child_peak = static_cast<uint64_t>(usage.ru_maxrss) * 1024;
  EXPECT_LT(child_peak, parent_rss + edge_list_bytes)
      << "streaming build peaked at " << (child_peak >> 20)
      << " MiB RSS vs a " << (parent_rss >> 20) << " MiB pre-fork baseline"
      << " — it grew by at least the " << (edge_list_bytes >> 20)
      << " MiB raw edge list it is supposed to never materialize";

  // The artifact is a real graph: mmap it and spot-check.
  Graph g = OpenMmapGraph(path).value();
  EXPECT_EQ(g.num_nodes(), n);
  EXPECT_EQ(g.num_edges(), uint64_t{n} * k);
  EXPECT_EQ(g.Degree(0), 2 * k);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, n - k));
  EXPECT_FALSE(g.HasEdge(0, k + 1));
}

}  // namespace
}  // namespace oca

// Differential suite for the block-scanning text readers. Every input is
// read by ReadEdgeListStream / ReadSnapStream and by a copy of the
// line-at-a-time getline + istringstream parsers they replaced, kept here
// as the reference; the two must agree on the CSR arrays, original_ids,
// the SNAP counters, and on which line an error is reported. The inputs
// where the new grammar departs from the reference on purpose are pinned
// by their own tests at the end.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <streambuf>
#include <string>
#include <unordered_map>
#include <vector>

#include "gen/lfr.h"
#include "graph/graph_builder.h"
#include "io/edge_list.h"
#include "io/snap.h"
#include "io/text_scan.h"
#include "util/random.h"

namespace oca {
namespace {

using internal::kScanBlockBytes;

// ---- Reference: the previous parsers, verbatim but for their names. ----

Result<LoadedGraph> ReferenceReadEdgeList(std::istream& in) {
  std::unordered_map<uint64_t, NodeId> dense;
  std::vector<uint64_t> original_ids;
  std::vector<Edge> edges;

  auto intern = [&](uint64_t raw) -> NodeId {
    auto [it, inserted] = dense.try_emplace(
        raw, static_cast<NodeId>(original_ids.size()));
    if (inserted) original_ids.push_back(raw);
    return it->second;
  };

  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    uint64_t a = 0, b = 0;
    if (!(ls >> a >> b)) {
      return Status::IOError("malformed edge at line " +
                             std::to_string(line_no) + ": '" + line + "'");
    }
    NodeId ua = intern(a);
    NodeId ub = intern(b);
    edges.emplace_back(ua, ub);
  }

  GraphBuilder builder(original_ids.size());
  for (auto& [u, v] : edges) builder.AddEdge(u, v);
  OCA_ASSIGN_OR_RETURN(Graph graph, builder.Build());
  return LoadedGraph{std::move(graph), std::move(original_ids)};
}

struct RawEdge {
  NodeId u;
  NodeId v;
  double w;
};

Result<SnapGraph> ReferenceReadSnap(std::istream& in,
                                    const SnapOptions& options) {
  std::unordered_map<uint64_t, NodeId> dense;
  std::vector<uint64_t> original_ids;
  std::vector<RawEdge> edges;
  SnapGraph out;

  auto intern = [&](uint64_t raw) -> NodeId {
    auto [it, inserted] =
        dense.try_emplace(raw, static_cast<NodeId>(original_ids.size()));
    if (inserted) original_ids.push_back(raw);
    return it->second;
  };

  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    ++out.lines_total;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    uint64_t a = 0, b = 0;
    if (!(ls >> a >> b)) {
      return Status::IOError("malformed edge at line " +
                             std::to_string(line_no) + ": '" + line + "'");
    }
    double w = 1.0;
    if (ls >> w) {
      if (!std::isfinite(w) || w <= 0.0) {
        return Status::IOError("edge weight must be finite and > 0 at line " +
                               std::to_string(line_no));
      }
      out.weighted = true;
    } else if (!ls.eof()) {
      return Status::IOError("malformed weight at line " +
                             std::to_string(line_no) + ": '" + line + "'");
    }
    ++out.edges_listed;
    NodeId ua = intern(a);
    NodeId ub = intern(b);
    if (ua == ub) {
      ++out.self_loops_dropped;
      continue;
    }
    edges.push_back({ua, ub, w});
  }

  GraphBuilder builder(original_ids.size());
  if (!out.weighted) {
    for (const RawEdge& e : edges) builder.AddEdge(e.u, e.v);
  } else {
    for (RawEdge& e : edges) {
      if (e.u > e.v) std::swap(e.u, e.v);
    }
    std::sort(edges.begin(), edges.end(),
              [](const RawEdge& a, const RawEdge& b) {
                if (a.u != b.u) return a.u < b.u;
                if (a.v != b.v) return a.v < b.v;
                return a.w < b.w;
              });
    for (size_t i = 0; i < edges.size();) {
      size_t j = i;
      double sum = 0.0;
      while (j < edges.size() && edges[j].u == edges[i].u &&
             edges[j].v == edges[i].v) {
        sum += edges[j].w;
        ++j;
      }
      const double mult = static_cast<double>(j - i);
      builder.AddEdge(edges[i].u, edges[i].v,
                      options.dedup_average ? sum / mult : sum);
      i = j;
    }
  }
  OCA_ASSIGN_OR_RETURN(out.graph, builder.Build());
  out.original_ids = std::move(original_ids);
  return out;
}

// ---- Comparison helpers. ----

// The line number an error names ("... at line N ..."), or "" for none.
std::string ErrorLine(const Status& status) {
  const std::string& msg = status.message();
  const size_t at = msg.find("at line ");
  if (at == std::string::npos) return "";
  size_t end = at + 8;
  while (end < msg.size() &&
         std::isdigit(static_cast<unsigned char>(msg[end]))) {
    ++end;
  }
  return msg.substr(at + 8, end - at - 8);
}

void ExpectSameArrays(const Graph& got, const Graph& want) {
  EXPECT_TRUE(std::ranges::equal(got.offsets(), want.offsets()));
  EXPECT_TRUE(
      std::ranges::equal(got.neighbor_array(), want.neighbor_array()));
  EXPECT_TRUE(std::ranges::equal(got.weight_array(), want.weight_array()));
}

void ExpectSameEdgeList(const std::string& text) {
  std::istringstream a(text), b(text);
  Result<LoadedGraph> got = ReadEdgeListStream(a);
  Result<LoadedGraph> want = ReferenceReadEdgeList(b);
  ASSERT_EQ(got.ok(), want.ok())
      << (got.ok() ? want.status() : got.status()).ToString();
  if (!want.ok()) {
    EXPECT_TRUE(got.status().IsIOError());
    EXPECT_EQ(ErrorLine(got.status()), ErrorLine(want.status()));
    EXPECT_NE(ErrorLine(got.status()), "");
    return;
  }
  ExpectSameArrays(got->graph, want->graph);
  EXPECT_EQ(got->original_ids, want->original_ids);
}

void ExpectSameSnap(const std::string& text, const SnapOptions& options = {}) {
  std::istringstream a(text), b(text);
  Result<SnapGraph> got = ReadSnapStream(a, options);
  Result<SnapGraph> want = ReferenceReadSnap(b, options);
  ASSERT_EQ(got.ok(), want.ok())
      << (got.ok() ? want.status() : got.status()).ToString();
  if (!want.ok()) {
    EXPECT_TRUE(got.status().IsIOError());
    EXPECT_EQ(ErrorLine(got.status()), ErrorLine(want.status()));
    EXPECT_NE(ErrorLine(got.status()), "");
    return;
  }
  ExpectSameArrays(got->graph, want->graph);
  EXPECT_EQ(got->original_ids, want->original_ids);
  EXPECT_EQ(got->lines_total, want->lines_total);
  EXPECT_EQ(got->edges_listed, want->edges_listed);
  EXPECT_EQ(got->self_loops_dropped, want->self_loops_dropped);
  EXPECT_EQ(got->weighted, want->weighted);
}

void ExpectSameBoth(const std::string& text) {
  {
    SCOPED_TRACE("edge list");
    ExpectSameEdgeList(text);
  }
  {
    SCOPED_TRACE("snap");
    ExpectSameSnap(text);
  }
}

// Edge-list text of a 3000-node overlapping LFR graph, in the canonical
// order WriteEdgeListStream emits.
std::string LfrText(uint64_t seed) {
  LfrOptions options;
  options.num_nodes = 3000;
  options.mixing = 0.3;
  options.overlapping_nodes = 100;
  options.seed = seed;
  const Graph graph = GenerateLfr(options).value().graph;
  std::stringstream out;
  EXPECT_TRUE(WriteEdgeListStream(graph, out).ok());
  return out.str();
}

// The same graph as SNAP-style text: lines shuffled, sparse 64-bit ids,
// random orientation, some duplicates and self-loops, and (when
// `weighted`) a weight column on most lines.
std::string ScrambledText(uint64_t seed, bool weighted) {
  std::istringstream in(LfrText(seed));
  const LoadedGraph loaded = ReadEdgeListStream(in).value();
  Rng rng(seed * 31 + 7);
  std::vector<uint64_t> sparse(loaded.graph.num_nodes());
  for (uint64_t& id : sparse) id = rng.Next() >> rng.NextBounded(60);
  std::vector<std::string> lines;
  loaded.graph.ForEachEdge([&](NodeId u, NodeId v) {
    if (rng.NextBool(0.5)) std::swap(u, v);
    const char* sep = rng.NextBool(0.5) ? "\t" : " ";
    std::string line =
        std::to_string(sparse[u]) + sep + std::to_string(sparse[v]);
    if (weighted && rng.NextBool(0.9)) {
      line += " " + std::to_string(0.25 + 0.5 * rng.NextDouble());
    }
    lines.push_back(line);
    if (rng.NextBool(0.02)) lines.push_back(line);
    if (rng.NextBool(0.01)) {
      const std::string id = std::to_string(sparse[u]);
      lines.push_back(id + " " + id);
    }
  });
  for (size_t i = lines.size(); i > 1; --i) {
    std::swap(lines[i - 1], lines[rng.NextBounded(i)]);
  }
  std::string text = "# scrambled\n";
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

// ---- Differential cases. ----

TEST(TextReaderDifferentialTest, GeneratedLfrText) {
  for (uint64_t seed : {4, 5}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string text = LfrText(seed);
    ASSERT_GT(text.size(), 2 * kScanBlockBytes);  // spans several blocks
    ExpectSameBoth(text);
  }
}

TEST(TextReaderDifferentialTest, ScrambledSparseIdText) {
  for (uint64_t seed : {6, 7}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectSameBoth(ScrambledText(seed, /*weighted=*/false));
    ExpectSameSnap(ScrambledText(seed, /*weighted=*/true));
    SnapOptions average;
    average.dedup_average = true;
    ExpectSameSnap(ScrambledText(seed, /*weighted=*/true), average);
  }
}

TEST(TextReaderDifferentialTest, TabsAndLeadingSpaces) {
  ExpectSameBoth("  1\t2\n\t3 4\n 5\t \t6\n\v7\f8\n");
  ExpectSameSnap(" 1\t2\t0.5\n\t2  3 \t 1.5\n");
}

TEST(TextReaderDifferentialTest, CrlfLineEndings) {
  ExpectSameBoth("# header\r\n1 2\r\n2 3\r\n% note\r\n3 1\r\n");
  ExpectSameSnap("1 2 0.5\r\n2 3 1.5\r\n3 4\r\n");
}

TEST(TextReaderDifferentialTest, NoFinalNewline) {
  ExpectSameBoth("1 2\n2 3");
  ExpectSameSnap("1 2 0.5\n2 3 2.5");
  ExpectSameSnap("1 2\n# trailing comment");
}

TEST(TextReaderDifferentialTest, ExtraTrailingColumns) {
  // The edge-list reader ignores everything after the second id; SNAP
  // reads a third column as the weight and ignores what follows it.
  ExpectSameEdgeList("1 2 3 4\n2 3 foo\n3 4 0.5 bar\n4 5x\n");
  ExpectSameSnap("1 2 0.5 extra\n2 3 1.5\t7 8\n");
  ExpectSameSnap("1 2 heavy\n");  // not a weight: both reject line 1
}

TEST(TextReaderDifferentialTest, CommentsAndEmptyLines) {
  ExpectSameBoth("% a\n\n# b\n1 2\n\n\n3 4\n#\n%\n\n");
  ExpectSameBoth("");
  ExpectSameBoth("\n\n");
  ExpectSameBoth("# only a comment");
}

TEST(TextReaderDifferentialTest, LineLongerThanOneBlock) {
  const std::string pad(2 * kScanBlockBytes + 17, ' ');
  const std::string comment = "#" + std::string(3 * kScanBlockBytes, 'c');
  ExpectSameBoth("1 2\n" + comment + "\n2 3" + pad + "\n3 4\n");
  ExpectSameBoth("1 2" + pad + "9 9\n" + comment);  // ignored tail; no EOL
  ExpectSameSnap("1 2" + pad + "0.5\n2 3\n");
  ExpectSameBoth("1 2\n" + pad + "x\n");  // long malformed line 2
}

TEST(TextReaderDifferentialTest, LineSplitAcrossBlockBoundary) {
  // Put the end of the first and of the second block at every offset
  // inside a data line, a CRLF pair, a weight and a comment.
  for (const std::string tail : {"123456 789012\r\n# cmt\n22 33\n",
                                 "44 55 0.125\r\n66 77 2\n"}) {
    for (size_t block : {kScanBlockBytes, 2 * kScanBlockBytes}) {
      for (size_t back = 1; back <= tail.size(); ++back) {
        SCOPED_TRACE("block " + std::to_string(block) + " back " +
                     std::to_string(back));
        // "5 6\n" plus one comment line, ending `back` bytes before the
        // block boundary.
        const std::string head =
            "5 6\n#" + std::string(block - back - 6, 'p') + "\n";
        ASSERT_EQ(head.size(), block - back);
        ExpectSameBoth(head + tail);
      }
    }
  }
}

TEST(TextReaderDifferentialTest, MalformedLinesReportTheSameLine) {
  ExpectSameBoth("1 2\nnot an edge\n");
  ExpectSameBoth("1 2\n3\n");
  ExpectSameBoth("1,2\n");
  ExpectSameBoth("  # indented comment is data\n");
  ExpectSameBoth("1 2\n   \n");  // whitespace-only line
  ExpectSameBoth("1 99999999999999999999999\n");
  ExpectSameSnap("1 2 -2.0\n");
  ExpectSameSnap("1 2\n2 3 0\n");
}

// ---- Deliberate departures from the reference. ----

TEST(TextReaderDeparturesTest, NegativeIdIsAnErrorNotAWrappedId) {
  {
    // The reference wrapped "-1" to 2^64 - 1.
    std::istringstream in("1 -1\n");
    Result<LoadedGraph> reference = ReferenceReadEdgeList(in);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(reference->original_ids[1], UINT64_MAX);
  }
  std::istringstream edge_list("1 2\n1 -1\n");
  Result<LoadedGraph> loaded = ReadEdgeListStream(edge_list);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
  EXPECT_EQ(ErrorLine(loaded.status()), "2");

  std::istringstream snap("-3 4 1.0\n");
  Result<SnapGraph> read = ReadSnapStream(snap);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsIOError());
  EXPECT_EQ(ErrorLine(read.status()), "1");
}

TEST(TextReaderDeparturesTest, IdsMustFitIn64Bits) {
  std::istringstream max_id("18446744073709551615 1\n");
  Result<LoadedGraph> ok = ReadEdgeListStream(max_id);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->original_ids[0], UINT64_MAX);

  for (const char* text : {"# x\n1 2\n18446744073709551616 1\n",
                           "# x\n1 2\n1 99999999999999999999\n"}) {
    std::istringstream edge_list(text);
    Result<LoadedGraph> loaded = ReadEdgeListStream(edge_list);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsIOError());
    EXPECT_EQ(ErrorLine(loaded.status()), "3");
    std::istringstream snap(text);
    Result<SnapGraph> read = ReadSnapStream(snap);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(ErrorLine(read.status()), "3");
  }
}

TEST(TextReaderDeparturesTest, EmptyCrlfLineIsBlank) {
  // The reference saw "\r" as a data line and rejected it.
  const std::string text = "1 2\r\n\r\n2 3\r\n";
  std::istringstream reference_in(text);
  EXPECT_FALSE(ReferenceReadEdgeList(reference_in).ok());
  std::istringstream edge_list(text);
  Result<LoadedGraph> loaded = ReadEdgeListStream(edge_list);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.num_edges(), 2u);
  std::istringstream snap(text);
  Result<SnapGraph> read = ReadSnapStream(snap);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->lines_total, 3u);
  EXPECT_EQ(read->edges_listed, 2u);
}

TEST(TextReaderDeparturesTest, SnapWeightNeedsASeparatingBlank) {
  // The reference read "1 23.5" as the edge (1, 23) with weight .5.
  std::istringstream reference_in("1 23.5\n");
  Result<SnapGraph> reference = ReferenceReadSnap(reference_in, {});
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(reference->weighted);

  std::istringstream snap("1 2 0.5\n1 23.5\n");
  Result<SnapGraph> read = ReadSnapStream(snap);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsIOError());
  EXPECT_EQ(ErrorLine(read.status()), "2");
  // The edge-list reader has no weight column and ignores the tail.
  std::istringstream edge_list("1 23.5\n");
  EXPECT_TRUE(ReadEdgeListStream(edge_list).ok());
}

// A stream whose buffer fails after `good` bytes, as a disk error would.
class FailingBuf : public std::streambuf {
 public:
  FailingBuf(std::string data, size_t good)
      : data_(std::move(data)), good_(good) {}

 protected:
  int_type underflow() override {
    if (pos_ >= good_) throw std::ios_base::failure("device error");
    const size_t n = std::min<size_t>(16, good_ - pos_);
    setg(data_.data() + pos_, data_.data() + pos_, data_.data() + pos_ + n);
    pos_ += n;
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::string data_;
  size_t good_;
  size_t pos_ = 0;
};

TEST(TextReaderDeparturesTest, ReadErrorIsAnIOErrorNotATruncatedGraph) {
  const std::string text = LfrText(4);
  FailingBuf buf(text, text.size() / 2);
  std::istream in(&buf);
  Result<LoadedGraph> loaded = ReadEdgeListStream(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());

  FailingBuf snap_buf(text, text.size() / 3);
  std::istream snap_in(&snap_buf);
  EXPECT_TRUE(ReadSnapStream(snap_in).status().IsIOError());
}

}  // namespace
}  // namespace oca

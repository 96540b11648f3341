#include "io/snap.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <string>
#include <string_view>

#include "graph/graph_builder.h"
#include "io/text_scan.h"

namespace oca {

namespace {

struct RawEdge {
  NodeId u;
  NodeId v;
  double w;
};

}  // namespace

Result<SnapGraph> ReadSnapStream(std::istream& in, const SnapOptions& options) {
  internal::LineScanner lines(in);
  internal::IdInterner ids;
  std::vector<RawEdge> edges;
  SnapGraph out;

  while (lines.Next()) {
    ++out.lines_total;
    const std::string_view line = lines.line();
    if (internal::IsSkippedLine(line)) continue;
    uint64_t a = 0, b = 0;
    const char* p = internal::ParseEdgePair(line, &a, &b);
    if (p == nullptr) {
      return internal::LineError("malformed edge", lines.line_no(), line);
    }
    const char* end = line.data() + line.size();
    const char* q = internal::SkipBlanks(p, end);
    double w = 1.0;
    if (q != end) {
      // The weight needs a blank before it: "1 23.5" is not (1, 23, .5).
      if (q == p ||
          std::from_chars(q + (*q == '+'), end, w).ec != std::errc()) {
        return internal::LineError("malformed weight", lines.line_no(), line);
      }
      if (!std::isfinite(w) || w <= 0.0) {
        return Status::IOError("edge weight must be finite and > 0 at line " +
                               std::to_string(lines.line_no()));
      }
      out.weighted = true;
    }
    ++out.edges_listed;
    // Sequence the interning: function-argument evaluation order is
    // unspecified, and first-seen id assignment must follow text order.
    const NodeId ua = ids.Intern(a);
    const NodeId ub = ids.Intern(b);
    if (ua == ub) {
      ++out.self_loops_dropped;
      continue;
    }
    edges.push_back({ua, ub, w});
  }
  OCA_RETURN_IF_ERROR(lines.status());
  std::vector<uint64_t> original_ids = ids.TakeOriginalIds();

  GraphBuilder builder(original_ids.size());
  if (!out.weighted) {
    for (const RawEdge& e : edges) builder.AddEdge(e.u, e.v);
  } else {
    // Canonicalise and pre-merge duplicates here (rather than in the
    // builder) so dedup_average can divide by the multiplicity. The
    // (u, v, w) sort matches GraphBuilder's own merge order, so the
    // summed weight is bit-identical either way.
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

Result<SnapGraph> ReadSnapFile(const std::string& path,
                               const SnapOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  return ReadSnapStream(in, options);
}

}  // namespace oca

#include "io/edge_list.h"

#include <fstream>
#include <string>
#include <string_view>

#include "graph/graph_builder.h"
#include "io/text_scan.h"

namespace oca {

Result<LoadedGraph> ReadEdgeListStream(std::istream& in) {
  internal::LineScanner lines(in);
  internal::IdInterner ids;
  GraphBuilder builder(0);
  while (lines.Next()) {
    const std::string_view line = lines.line();
    if (internal::IsSkippedLine(line)) continue;
    uint64_t a = 0, b = 0;
    if (internal::ParseEdgePair(line, &a, &b) == nullptr) {
      return internal::LineError("malformed edge", lines.line_no(), line);
    }
    // Sequence the interning: function-argument evaluation order is
    // unspecified, and first-seen id assignment must follow text order.
    const NodeId ua = ids.Intern(a);
    const NodeId ub = ids.Intern(b);
    builder.AddEdge(ua, ub);
  }
  OCA_RETURN_IF_ERROR(lines.status());
  builder.EnsureNodes(ids.size());
  OCA_ASSIGN_OR_RETURN(Graph graph, builder.Build());
  return LoadedGraph{std::move(graph), ids.TakeOriginalIds()};
}

Result<LoadedGraph> ReadEdgeListFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  return ReadEdgeListStream(in);
}

Status WriteEdgeListStream(const Graph& graph, std::ostream& out) {
  out << "# Undirected graph: " << graph.num_nodes() << " nodes, "
      << graph.num_edges() << " edges\n";
  graph.ForEachEdge([&out](NodeId u, NodeId v) {
    out << u << '\t' << v << '\n';
  });
  if (!out) return Status::IOError("stream write failed");
  return Status::OK();
}

Status WriteEdgeListFile(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  return WriteEdgeListStream(graph, out);
}

}  // namespace oca

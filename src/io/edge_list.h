// Text edge-list I/O in the SNAP dataset convention. This is the format
// of the public SNAP social-network datasets the paper community
// standardly evaluates on.
//
// Accepted grammar (ReadEdgeList*):
//   file     := line*        a line ends at '\n'; the last one may lack
//                            it; one trailing '\r' is dropped (CRLF)
//   line     := empty        skipped
//             | comment      skipped: first byte '#' or '%'
//             | edge
//   edge     := blank* id blank+ id rest
//   rest     := any bytes    ignored (extra columns, trailing text)
//   id       := '+'? digit+  decimal, value <= 2^64 - 1
//   blank    := ' ' | '\t' | '\r' | '\v' | '\f'
// Any other line is an IOError naming its line number: a whitespace-only
// line, a comment not in the first byte, a '-' sign, an id of 2^64 or
// more. Ids need not be dense; they are interned to [0, n) in
// first-seen order (original_ids maps back). Self-loops are dropped and
// repeated edges, in either orientation, collapse to one.
//
// The reader pulls the stream in fixed-size blocks, so its working
// memory is one block plus the longest line, not the whole input.

#ifndef OCA_IO_EDGE_LIST_H_
#define OCA_IO_EDGE_LIST_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/result.h"

namespace oca {

/// A loaded edge list plus the original-id mapping.
struct LoadedGraph {
  Graph graph;
  std::vector<uint64_t> original_ids;  // dense id -> original id

  /// Dense id for original id, or npos when unseen.
  static constexpr uint32_t kNotFound = UINT32_MAX;
};

/// Parses SNAP-style edge-list text from a stream.
Result<LoadedGraph> ReadEdgeListStream(std::istream& in);

/// Loads a SNAP-style edge-list file.
Result<LoadedGraph> ReadEdgeListFile(const std::string& path);

/// Writes the canonical (u < v) edge list, one edge per line, with a
/// header comment carrying n and m.
Status WriteEdgeListStream(const Graph& graph, std::ostream& out);
Status WriteEdgeListFile(const Graph& graph, const std::string& path);

}  // namespace oca

#endif  // OCA_IO_EDGE_LIST_H_

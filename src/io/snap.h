// SNAP dataset ingestion: the edge-list convention of the public SNAP
// collection (ego-Facebook, com-Amazon, ...), which is what the paper's
// Table 1 evaluates on.
//
//   - the line, comment, id and blank rules of edge_list.h; '#' and '%'
//     comments include the "Nodes: N Edges: M" header hints (which count
//     directed arcs in many releases and so are not trusted)
//   - one edge per line, with an optional weight column:
//       edge   := blank* id blank+ id (blank* | blank+ weight rest)
//       weight := '+'? a decimal floating-point number as std::from_chars
//                 reads it (e.g. "2", "0.5", ".5", "1e-3"), finite and > 0
//       rest   := any bytes, ignored
//     Lines without a weight count 1.0. Anything else after the second
//     id, a non-finite or non-positive weight, or one out of double
//     range is an IOError naming the line
//   - node ids are sparse and are interned densely in first-appearance
//     order (same policy as edge_list.h)
//   - SNAP directed releases list both orientations of reciprocated
//     edges; GraphBuilder's canonicalisation collapses them, and on
//     weighted input duplicate weights SUM (GraphBuilder policy). Pass
//     SnapOptions::dedup_average to halve summed duplicates instead —
//     correct for symmetric directed dumps where both orientations
//     carry the same weight.
//
// The resulting graph is weighted iff at least one data line carried a
// third column; a fully two-column file takes the unweighted code path
// end to end, so SNAP ingestion composes with every digest pin.

#ifndef OCA_IO_SNAP_H_
#define OCA_IO_SNAP_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/result.h"

namespace oca {

struct SnapOptions {
  /// When a duplicate (u, v) pair appears k times, GraphBuilder sums the
  /// k weights. With this set, every edge weight is divided by its
  /// multiplicity after the merge — turning "both orientations listed"
  /// directed dumps into the intended symmetric weight. No effect on
  /// unweighted input.
  bool dedup_average = false;
};

/// A loaded SNAP graph plus provenance for reporting.
struct SnapGraph {
  Graph graph;
  std::vector<uint64_t> original_ids;  // dense id -> original id
  uint64_t lines_total = 0;            // all lines seen (incl. comments)
  uint64_t edges_listed = 0;           // data lines parsed
  uint64_t self_loops_dropped = 0;     // u == v lines (builder drops them)
  bool weighted = false;               // any line carried a weight column
};

/// Parses SNAP-style edge-list text from a stream.
Result<SnapGraph> ReadSnapStream(std::istream& in,
                                 const SnapOptions& options = {});

/// Loads a SNAP-style edge-list file.
Result<SnapGraph> ReadSnapFile(const std::string& path,
                               const SnapOptions& options = {});

}  // namespace oca

#endif  // OCA_IO_SNAP_H_

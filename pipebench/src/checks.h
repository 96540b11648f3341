// Output checks of the pipeline benchmark. Each is computed by the
// benchmark itself (its own parser, mat-vec, fitness formula, cover
// inversion and quality metrics), never by the library code it checks
// and never against a stored copy of an earlier output.
#ifndef PIPEBENCH_CHECKS_H_
#define PIPEBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/community_store.h"
#include "core/cover.h"
#include "core/recursive_hierarchy.h"
#include "graph/graph.h"

namespace pipebench {

/// Tally of checks: every check is one attempted operation, every
/// mismatch one failed operation. The first few failures are kept for
/// the run's stderr report.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> first_failures;
  void Check(bool ok, const std::string& what);
};

/// A generated edge file as the benchmark reads it: canonical (u < v)
/// distinct non-loop pairs, sorted, with the weight of each pair when
/// the file carries a third column.
struct EdgeFile {
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  std::vector<double> weights;  // empty for an unweighted file
};
bool ReadEdgeFile(const std::string& path, bool weighted, EdgeFile* out);

/// The loaded graph holds exactly the file's distinct undirected
/// non-loop edges. `original_ids` maps dense ids back to file ids
/// (empty = identity). On a weighted file, every edge weight is the
/// same in both directions and equals the file's.
void CheckGraph(const oca::Graph& graph,
                const std::vector<uint64_t>& original_ids,
                const EdgeFile& file, Tally* tally);

/// The spectral checks on one coupling solve: the residual of lambda on
/// its vector under the benchmark's mat-vec, c = -1/lambda (to the
/// engine's admissible-side bias) and lambda >= -(max weighted degree).
void CheckCoupling(const oca::Graph& graph, double c, double lambda,
                   const std::vector<double>& vector, Tally* tally);

/// True when no single add or remove raises the directed Laplacian
/// L(S) = s - sqrt(s(s-1)) + 2c Ein (1 - (s-2)/sqrt(s(s-1))) by more than
/// the climber's epsilon; Ein is the internal edge weight.
bool IsLocalMaximum(const oca::Graph& graph, const oca::Community& community,
                    double c, double epsilon);

/// The paper's Theta (best-Jaccard attribution of each found community
/// to a planted one) and the symmetric average best-match F1.
double ThetaScore(const oca::Cover& truth, const oca::Cover& found);
double AverageBestF1(const oca::Cover& truth, const oca::Cover& found);

/// Every child is a subset of its parent, child depth is parent depth
/// plus one, roots have depth 0 and no parent, links agree both ways.
void CheckTree(const oca::RecursiveHierarchy& tree, Tally* tally);

/// The benchmark's own inversion of an in-memory tree: per node, the
/// root ids containing it (ascending) and its root-to-deepest paths
/// (roots ascending, children in tree order).
struct Inversion {
  std::vector<std::vector<uint32_t>> roots_of;
  std::vector<std::vector<std::vector<uint32_t>>> paths_of;
};
Inversion InvertTree(const oca::RecursiveHierarchy& tree, size_t num_nodes);

/// For every node, the snapshot's CommunitiesOf and MembershipPath
/// equal the inversion. One attempted operation per node.
void CheckStoreAgainst(const oca::CommunityStore& store, const Inversion& inv,
                       Tally* tally);

/// Builds from the inversion and the tree alone the payload (the text
/// after "OK ") the protocol should answer `request` with. False when the
/// request is not a COMMUNITIES, PATHS or SIBLINGS line for a known node.
bool ExpectedPayload(const std::string& request,
                     const oca::RecursiveHierarchy& tree,
                     const Inversion& inv, std::string* payload);

}  // namespace pipebench

#endif  // PIPEBENCH_CHECKS_H_

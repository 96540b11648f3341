// Greedy hill-climbing on a fitness function over the subset lattice
// (paper Section IV): starting from a seed set, repeatedly apply the
// single add-or-remove move with the greatest fitness increase until no
// move improves — a local maximum of the fitness, i.e. one community.

#ifndef OCA_CORE_LOCAL_SEARCH_H_
#define OCA_CORE_LOCAL_SEARCH_H_

#include <cstdint>

#include "core/community_state.h"
#include "core/cover.h"
#include "core/fitness.h"
#include "graph/graph.h"
#include "util/result.h"

namespace oca {

/// Controls for one greedy climb.
struct LocalSearchOptions {
  FitnessParams fitness;
  /// A move must improve fitness by more than this to be taken (guards
  /// against floating-point plateaus causing add/remove cycles). Must be
  /// finite and >= 0; GreedyLocalSearch rejects anything else.
  double epsilon = 1e-9;
  /// Hard cap on greedy steps (0 = no cap). A safety valve only; the
  /// strictly increasing fitness already guarantees termination.
  size_t max_steps = 0;
  /// Cap on community size during growth (0 = unbounded).
  size_t max_community_size = 0;
  /// Allow the removal move (the paper's search uses both directions).
  bool allow_remove = true;
  /// Testing/ablation escape hatch: skip the bucket-queue fast paths
  /// even when the fitness is deg-in-ranked, forcing the generic
  /// climber. The climbers reach local maxima of the same quality but
  /// break exact gain ties differently (see GreedyLocalSearch), so
  /// differential suites that compare against the generic weighted
  /// path set this to compare like for like.
  bool force_generic_climber = false;
};

/// Outcome of one climb.
struct LocalSearchResult {
  Community community;     // sorted members of the local maximum
  double fitness = 0.0;    // fitness at the maximum
  SubsetStats stats;       // statistics at the maximum
  size_t steps = 0;        // moves taken
  size_t adds = 0;
  size_t removes = 0;
  bool hit_step_cap = false;
};

/// Climbs from `seed_set` (must be non-empty, members in range, duplicate
/// free after canonicalization). Deterministic; an add beats a removal of
/// equal gain, and exact ties among candidates of one kind go to:
///   * integer bucket-queue climber (deg-in-ranked fitness): the node
///     inserted last into the extreme deg-in bucket (a re-keyed node
///     counts as freshly inserted);
///   * weighted climber (deg-in-ranked, use_weights on a weighted
///     graph): the smallest id among the nodes of the extreme quantized
///     bucket with the exact extreme weighted deg-in;
///   * generic climber (every other fitness, or force_generic_climber):
///     the first node in iteration order, i.e. the smallest id for an
///     add and the earliest-inserted member for a removal.
Result<LocalSearchResult> GreedyLocalSearch(const Graph& graph,
                                            const Community& seed_set,
                                            const LocalSearchOptions& options);

}  // namespace oca

#endif  // OCA_CORE_LOCAL_SEARCH_H_

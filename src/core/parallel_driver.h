// Parallel expansion of a batch of seed sets. Deterministic given the
// same batch contents and options: each slot runs independently and
// results are collected by slot index, so thread scheduling cannot change
// the outcome.

#ifndef OCA_CORE_PARALLEL_DRIVER_H_
#define OCA_CORE_PARALLEL_DRIVER_H_

#include <vector>

#include "core/local_search.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace oca {

/// Expands every seed set in `seed_sets` with GreedyLocalSearch, using
/// `pool` when non-null (otherwise serial). Returns one result per input
/// slot, in order, or the error of the lowest-indexed failed climb, so a
/// serial and a threaded run report the same error.
Result<std::vector<LocalSearchResult>> ExpandSeedBatch(
    const Graph& graph, const std::vector<Community>& seed_sets,
    const LocalSearchOptions& options, ThreadPool* pool);

}  // namespace oca

#endif  // OCA_CORE_PARALLEL_DRIVER_H_

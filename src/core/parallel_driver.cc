#include "core/parallel_driver.h"

namespace oca {

Result<std::vector<LocalSearchResult>> ExpandSeedBatch(
    const Graph& graph, const std::vector<Community>& seed_sets,
    const LocalSearchOptions& options, ThreadPool* pool) {
  std::vector<LocalSearchResult> results(seed_sets.size());
  std::vector<Status> errors(seed_sets.size());
  auto run_one = [&](size_t i) {
    auto r = GreedyLocalSearch(graph, seed_sets[i], options);
    if (r.ok()) {
      results[i] = std::move(r).value();
    } else {
      errors[i] = r.status();
    }
  };
  if (pool != nullptr && seed_sets.size() > 1) {
    pool->ParallelFor(seed_sets.size(), run_one);
  } else {
    for (size_t i = 0; i < seed_sets.size(); ++i) run_one(i);
  }
  for (const Status& error : errors) {
    OCA_RETURN_IF_ERROR(error);
  }
  return results;
}

}  // namespace oca

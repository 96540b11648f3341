// The served-query phase: a StoreServer with two reader threads over
// one snapshot, one closed-loop StoreClient on loopback, and the same
// requests answered in process for comparison.
#ifndef PIPEBENCH_SERVE_H_
#define PIPEBENCH_SERVE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "core/community_store.h"
#include "trace.h"

namespace pipebench {

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);

/// The request verbs of the mix, in the order of ServedPass::verb_p50_us.
constexpr size_t kNumVerbs = 3;
constexpr const char* kVerbNames[kNumVerbs] = {"communities", "paths",
                                               "siblings"};

/// One pass over the request list: its request rate and latency
/// percentiles, overall and per verb.
struct ServedPass {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double verb_p50_us[kNumVerbs] = {0.0, 0.0, 0.0};
};

struct ServeOutcome {
  std::vector<ServedPass> passes;
  double served_seconds = 0.0;       // wall time of the request loops
  uint64_t server_requests = 0;      // StoreServer::Stats at shutdown
  uint64_t server_errors = 0;
};

/// Starts a server over `store`, then sends whole passes over
/// `requests` while `another_pass(pass)` says so (at least one pass).
/// Each reply is checked against `expected` (the payload after "OK ").
/// `recorder` (nullable) gets one span per pass.
/// Each pass is timed on its own; the run reports means over passes.
bool ServeRequests(const oca::CommunityStore& store,
                   const std::vector<std::string>& requests,
                   const std::vector<std::string>& expected,
                   const std::function<bool(size_t pass)>& another_pass,
                   SpanRecorder* recorder, Tally* tally, ServeOutcome* out);

/// Answers `requests` in process, once straight from the store's
/// accessors and once through ParseStoreRequest + ExecuteStoreRequest,
/// checks the latter against `expected`, and returns the two per-request
/// costs in nanoseconds.
void AnswerInProcess(const oca::CommunityStore& store,
                     const std::vector<std::string>& requests,
                     const std::vector<std::string>& expected,
                     SpanRecorder* recorder, Tally* tally, double* lookup_ns,
                     double* execute_ns);

}  // namespace pipebench

#endif  // PIPEBENCH_SERVE_H_

#include "serve.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "server/store_client.h"
#include "server/store_protocol.h"
#include "server/store_server.h"

namespace pipebench {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(std::max<size_t>(rank, 1), v.size()) - 1];
}

namespace {

// Index into kVerbNames of a request line's verb.
size_t VerbOf(const std::string& request) {
  if (request.rfind("COMMUNITIES", 0) == 0) return 0;
  if (request.rfind("PATHS", 0) == 0) return 1;
  return 2;
}

}  // namespace

bool ServeRequests(const oca::CommunityStore& store,
                   const std::vector<std::string>& requests,
                   const std::vector<std::string>& expected,
                   const std::function<bool(size_t pass)>& another_pass,
                   SpanRecorder* recorder, Tally* tally, ServeOutcome* out) {
  // The client and every server thread share one CPU: each round trip
  // is then two context switches on that CPU, never a cross-CPU wakeup
  // whose cost depends on where the scheduler happened to place the
  // threads (on a shared 4-vCPU box that placement made the served rate
  // bimodal from run to run). Server threads inherit the mask at Start.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  const bool pinned = sched_getaffinity(0, sizeof(saved), &saved) == 0;
  if (pinned) {
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    sched_setaffinity(0, sizeof(one), &one);
  }
  struct RestoreAffinity {
    bool pinned;
    cpu_set_t* mask;
    ~RestoreAffinity() {
      if (pinned) sched_setaffinity(0, sizeof(*mask), mask);
    }
  } restore{pinned, &saved};

  oca::StoreServerOptions options;
  options.num_threads = 2;
  auto server = oca::StoreServer::Start(store, options);
  if (!server.ok()) {
    std::fprintf(stderr, "server start: %s\n",
                 server.status().ToString().c_str());
    return false;
  }
  std::vector<size_t> verbs;
  verbs.reserve(requests.size());
  for (const std::string& request : requests) verbs.push_back(VerbOf(request));
  bool ok = true;
  {
    auto client = oca::StoreClient::Connect("127.0.0.1",
                                            server.value()->port());
    if (!client.ok()) {
      std::fprintf(stderr, "client connect: %s\n",
                   client.status().ToString().c_str());
      ok = false;
    }
    for (size_t pass = 0; ok && (pass == 0 || another_pass(pass)); ++pass) {
      ScopedSpan span(recorder, "server.pass");
      std::vector<double> latencies_us;
      latencies_us.reserve(requests.size());
      std::vector<double> verb_us[kNumVerbs];
      for (auto& v : verb_us) v.reserve(requests.size());
      const auto pass_start = Clock::now();
      for (size_t i = 0; i < requests.size(); ++i) {
        const auto t0 = Clock::now();
        auto reply = client.value().Raw(requests[i]);
        const auto t1 = Clock::now();
        latencies_us.push_back(Seconds(t0, t1) * 1e6);
        verb_us[verbs[i]].push_back(latencies_us.back());
        tally->Check(reply.ok() && reply.value() == expected[i],
                     "served reply to '" + requests[i] + "' differs");
      }
      const double seconds = Seconds(pass_start, Clock::now());
      out->served_seconds += seconds;
      ServedPass served{static_cast<double>(requests.size()) / seconds,
                        Percentile(latencies_us, 0.50),
                        Percentile(latencies_us, 0.99)};
      for (size_t verb = 0; verb < kNumVerbs; ++verb) {
        served.verb_p50_us[verb] = Percentile(verb_us[verb], 0.50);
      }
      out->passes.push_back(served);
    }
  }
  server.value()->Shutdown();
  const auto stats = server.value()->stats();
  out->server_requests += stats.requests;
  out->server_errors += stats.errors;
  tally->Check(stats.errors == 0, "server answered ERR");
  return ok;
}

void AnswerInProcess(const oca::CommunityStore& store,
                     const std::vector<std::string>& requests,
                     const std::vector<std::string>& expected,
                     SpanRecorder* recorder, Tally* tally, double* lookup_ns,
                     double* execute_ns) {
  struct Parsed {
    int kind;  // 0 COMMUNITIES, 1 PATHS, 2 SIBLINGS
    uint32_t node;
    uint32_t level;
  };
  std::vector<Parsed> parsed;
  parsed.reserve(requests.size());
  for (const std::string& line : requests) {
    char verb[16] = {0};
    unsigned node = 0, level = 0;
    std::sscanf(line.c_str(), "%15s %u %u", verb, &node, &level);
    const int kind = std::strcmp(verb, "COMMUNITIES") == 0 ? 0
                     : std::strcmp(verb, "PATHS") == 0     ? 1
                                                           : 2;
    parsed.push_back({kind, node, level});
  }

  // Straight from the store: the accessors a reply is built from.
  std::vector<uint32_t> scratch;
  uint64_t checksum = 0;
  auto t0 = Clock::now();
  {
    ScopedSpan span(recorder, "store.lookups");
    for (const Parsed& p : parsed) {
      if (p.kind == 0) {
        checksum += store.CommunitiesOf(p.node).size();
      } else if (p.kind == 1) {
        const size_t paths = store.NumPaths(p.node);
        for (size_t i = 0; i < paths; ++i) {
          checksum += store.MembershipPath(p.node, i).size();
        }
      } else {
        store.SiblingsAtLevel(p.node, p.level, &scratch);
        checksum += scratch.size();
      }
    }
  }
  auto t1 = Clock::now();
  *lookup_ns = Seconds(t0, t1) * 1e9 / static_cast<double>(parsed.size());

  // Through the protocol layer, as the server runs it per request.
  std::vector<std::string> replies(requests.size());
  for (auto& r : replies) r.reserve(64);
  t0 = Clock::now();
  {
    ScopedSpan span(recorder, "server.execute");
    for (size_t i = 0; i < requests.size(); ++i) {
      auto request = oca::ParseStoreRequest(requests[i]);
      if (!request.ok()) {
        oca::AppendErrorResponse(request.status(), &replies[i]);
        continue;
      }
      oca::ExecuteStoreRequest(store, request.value(), &replies[i], &scratch);
    }
  }
  t1 = Clock::now();
  *execute_ns = Seconds(t0, t1) * 1e9 / static_cast<double>(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    tally->Check(replies[i] == "OK " + expected[i] + "\n",
                 "in-process reply to '" + requests[i] + "' differs");
  }
  if (checksum == UINT64_MAX) std::fprintf(stderr, "unreachable\n");
}

}  // namespace pipebench

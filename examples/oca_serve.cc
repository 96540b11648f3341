// oca_serve: long-running query server over a .ocac community store.
//
//   $ ./build/examples/oca_serve --store=communities.ocac
//         [--port=0] [--threads=4] [--timeout_ms=5000]
//         [--port_file=<path>]
//
// Opens the store as an immutable mmap snapshot and serves the line
// protocol (server/store_protocol.h) until SIGINT/SIGTERM or a client
// SHUTDOWN request. --port=0 binds an ephemeral port; --port_file
// writes the bound port to a file once listening, so scripts (the CI
// store-serve job) can discover it without parsing stdout.

#include <unistd.h>

#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "oca/oca.h"

#include "util/flags.h"

namespace {

int Fail(const oca::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  oca::FlagParser flags;
  if (auto s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  std::string store_path = flags.GetString("store", "");
  oca::StoreServerOptions options;
  options.port =
      static_cast<uint16_t>(flags.GetInt("port", 0).value_or(0));
  options.num_threads =
      static_cast<size_t>(flags.GetInt("threads", 4).value_or(4));
  options.request_timeout_ms =
      static_cast<int>(flags.GetInt("timeout_ms", 5000).value_or(5000));
  const std::string port_file = flags.GetString("port_file", "");
  if (auto s = flags.CheckAllRead(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }
  if (store_path.empty()) {
    std::fprintf(stderr,
                 "usage: oca_serve --store=<file.ocac> [--port=0] "
                 "[--threads=4] [--timeout_ms=5000] [--port_file=<path>]\n");
    return 2;
  }

  auto store = oca::CommunityStore::Open(store_path);
  if (!store.ok()) return Fail(store.status());
  const auto& meta = store.value().metadata();
  std::printf("store %s: %" PRIu64 " nodes, %" PRIu64
              " communities, %" PRIu64 " levels\n",
              store_path.c_str(), meta.num_nodes, meta.num_communities,
              meta.num_levels);

  // Block the termination signals BEFORE starting the server so every
  // thread it spawns inherits the mask; the main thread then consumes
  // them synchronously with sigwait — no async-signal-safety gymnastics.
  sigset_t term_signals;
  sigemptyset(&term_signals);
  sigaddset(&term_signals, SIGINT);
  sigaddset(&term_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &term_signals, nullptr);

  auto server = oca::StoreServer::Start(std::move(store).value(), options);
  if (!server.ok()) return Fail(server.status());
  std::printf("listening on %s:%u\n", options.host.c_str(),
              server.value()->port());
  std::fflush(stdout);

  if (!port_file.empty()) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%u\n", server.value()->port());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot write port file %s\n", port_file.c_str());
      return 1;
    }
  }

  // Two ways out: a signal, or a protocol SHUTDOWN stopping the server
  // from inside. The watcher converts the latter into the former so the
  // sigwait below is the single exit point.
  std::thread watcher([&server] {
    server.value()->WaitUntilStopped();
    kill(getpid(), SIGTERM);
  });

  int sig = 0;
  sigwait(&term_signals, &sig);
  std::printf("shutting down (%s)\n", strsignal(sig));
  server.value()->RequestStop();
  watcher.join();
  server.value()->Shutdown();

  const auto stats = server.value()->stats();
  std::printf("served %" PRIu64 " connections, %" PRIu64 " requests (%" PRIu64
              " errors, %" PRIu64 " timeouts)\n",
              stats.connections, stats.requests, stats.errors, stats.timeouts);
  return 0;
}

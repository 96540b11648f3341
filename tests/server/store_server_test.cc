// End-to-end StoreServer/StoreClient tests over real loopback sockets:
// a served snapshot answers every query exactly like the store it wraps
// (the service's core contract), bad requests come back as the typed
// errors the executor encoded without killing the connection, several
// clients hammer one server concurrently without divergence, and the
// shutdown paths (client SHUTDOWN, RequestStop, double Shutdown) drain
// cleanly with honest stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/community_store.h"
#include "core/recursive_hierarchy.h"
#include "io/community_serialize.h"
#include "server/store_client.h"
#include "server/store_server.h"
#include "testing/temp_path.h"

namespace oca {
namespace {

// Same 9-node overlapping fixture as the protocol tests: roots 0 {0..5}
// and 1 {4..7}, children 2 {0,1,2}, 3 {3,4,5}, 4 {6,7}; node 8
// uncovered.
RecursiveHierarchy HandcraftedTree() {
  RecursiveHierarchy tree;
  tree.nodes.resize(5);
  tree.nodes[0].community = {0, 1, 2, 3, 4, 5};
  tree.nodes[0].children = {2, 3};
  tree.nodes[0].stop_reason = "split";
  tree.nodes[1].community = {4, 5, 6, 7};
  tree.nodes[1].children = {4};
  tree.nodes[1].stop_reason = "split";
  tree.nodes[2].community = {0, 1, 2};
  tree.nodes[2].parent = 0;
  tree.nodes[2].depth = 1;
  tree.nodes[2].stop_reason = "min_size";
  tree.nodes[3].community = {3, 4, 5};
  tree.nodes[3].parent = 0;
  tree.nodes[3].depth = 1;
  tree.nodes[3].stop_reason = "density";
  tree.nodes[4].community = {6, 7};
  tree.nodes[4].parent = 1;
  tree.nodes[4].depth = 1;
  tree.nodes[4].stop_reason = "max_depth";
  tree.roots = {0, 1};
  tree.max_depth_reached = 1;
  return tree;
}

class StoreServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string path =
        testing::TestTempPath("store_server_test.ocac");
    ASSERT_TRUE(WriteCommunityStoreFile(HandcraftedTree(), 9, 13, path).ok());
    auto store = CommunityStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::make_unique<CommunityStore>(std::move(store).value());

    StoreServerOptions options;
    options.port = 0;  // ephemeral
    options.num_threads = 4;
    auto server = StoreServer::Start(*store_, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  StoreClient Connect() {
    auto client = StoreClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::unique_ptr<CommunityStore> store_;
  std::unique_ptr<StoreServer> server_;
};

using U32s = std::vector<uint32_t>;

TEST_F(StoreServerTest, ServedAnswersMatchTheStoreExactly) {
  StoreClient client = Connect();
  std::vector<uint32_t> scratch;
  for (NodeId v = 0; v < store_->num_nodes(); ++v) {
    SCOPED_TRACE("node " + std::to_string(v));
    auto communities = client.Communities(v);
    ASSERT_TRUE(communities.ok()) << communities.status().ToString();
    auto local = store_->CommunitiesOf(v);
    EXPECT_TRUE(std::equal(communities->begin(), communities->end(),
                           local.begin(), local.end()));

    auto paths = client.Paths(v);
    ASSERT_TRUE(paths.ok()) << paths.status().ToString();
    ASSERT_EQ(paths->size(), store_->NumPaths(v));
    for (size_t i = 0; i < paths->size(); ++i) {
      auto local_path = store_->MembershipPath(v, i);
      EXPECT_TRUE(std::equal((*paths)[i].begin(), (*paths)[i].end(),
                             local_path.begin(), local_path.end()));
    }

    for (uint32_t k = 0; k < 3; ++k) {
      auto siblings = client.Siblings(v, k);
      ASSERT_TRUE(siblings.ok()) << siblings.status().ToString();
      store_->SiblingsAtLevel(v, k, &scratch);
      EXPECT_EQ(*siblings, scratch);
    }
  }
}

TEST_F(StoreServerTest, StatsLineAndPing) {
  StoreClient client = Connect();
  EXPECT_TRUE(client.Ping().ok());
  auto stats = client.StatsLine();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("nodes=9 "), std::string::npos) << *stats;
  EXPECT_NE(stats->find("communities=5 "), std::string::npos) << *stats;
}

TEST_F(StoreServerTest, BadRequestKeepsTheConnectionAlive) {
  StoreClient client = Connect();
  auto bad = client.Communities(99);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsOutOfRange()) << bad.status().ToString();
  // The connection survives the error and answers the next request.
  auto good = client.Communities(4);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(*good, (U32s{0, 1}));

  server_->RequestStop();
  server_->Shutdown();
  const auto stats = server_->stats();
  EXPECT_GE(stats.requests, 2u);
  EXPECT_GE(stats.errors, 1u);
}

TEST_F(StoreServerTest, ConcurrentClientsGetConsistentAnswers) {
  // As many client threads as reader threads, each comparing every
  // answer against the local store. Bakes in both correctness under
  // concurrency and that 4 persistent connections can be served at once.
  constexpr size_t kClients = 4;
  constexpr size_t kRounds = 50;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto client = StoreClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      std::vector<uint32_t> scratch;
      for (size_t r = 0; r < kRounds; ++r) {
        for (NodeId v = 0; v < store_->num_nodes(); ++v) {
          auto communities = client->Communities(v);
          if (!communities.ok()) {
            failures.fetch_add(1);
            return;
          }
          auto local = store_->CommunitiesOf(v);
          if (!std::equal(communities->begin(), communities->end(),
                          local.begin(), local.end())) {
            mismatches.fetch_add(1);
          }
          auto siblings = client->Siblings(v, 1);
          if (!siblings.ok()) {
            failures.fetch_add(1);
            return;
          }
          store_->SiblingsAtLevel(v, 1, &scratch);
          if (*siblings != scratch) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(server_->stats().connections, kClients);
}

TEST_F(StoreServerTest, ClientShutdownStopsTheServer) {
  StoreClient client = Connect();
  ASSERT_TRUE(client.Shutdown().ok());
  // SHUTDOWN is acknowledged before the stop, so WaitUntilStopped must
  // return without anyone calling RequestStop locally.
  server_->WaitUntilStopped();
  server_->Shutdown();
  EXPECT_GE(server_->stats().requests, 1u);

  // A post-shutdown connect must fail: nothing is listening.
  auto late = StoreClient::Connect("127.0.0.1", server_->port(), 500);
  EXPECT_FALSE(late.ok());
}

TEST_F(StoreServerTest, ShutdownIsIdempotentAndUnblocksWaiters) {
  std::thread waiter([this] { server_->WaitUntilStopped(); });
  server_->RequestStop();
  waiter.join();
  server_->Shutdown();
  server_->Shutdown();  // second call is a no-op
}

TEST_F(StoreServerTest, ConnectToDeadPortFails) {
  const uint16_t port = server_->port();
  server_->RequestStop();
  server_->Shutdown();
  auto client = StoreClient::Connect("127.0.0.1", port, 500);
  EXPECT_FALSE(client.ok());
}

}  // namespace
}  // namespace oca

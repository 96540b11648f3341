// The oca_serve wire grammar, pinned at the byte level: request parsing
// (every verb, every malformed shape), response formatting (exact
// payload strings against a handcrafted store), and the response parser
// that clients reconstruct typed statuses from. The server and the
// offline store_query CLI share these functions verbatim, so this file
// is what keeps the two from drifting.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/community_store.h"
#include "core/recursive_hierarchy.h"
#include "io/community_serialize.h"
#include "server/store_protocol.h"
#include "testing/temp_path.h"

namespace oca {
namespace {

// Same 9-node overlapping fixture as community_store_query_test: two
// roots 0 {0..5} and 1 {4..7}, children 2 {0,1,2}, 3 {3,4,5} under 0
// and 4 {6,7} under 1; node 8 uncovered.
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
  tree.root_stats.coupling_constant = 2.25;
  tree.root_stats.lambda_min = -0.4375;
  return tree;
}

class StoreProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tree_ = HandcraftedTree();
    const std::string path =
        testing::TestTempPath("store_protocol_test.ocac");
    ASSERT_TRUE(WriteCommunityStoreFile(tree_, 9, 13, path).ok());
    auto store = CommunityStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::make_unique<CommunityStore>(std::move(store).value());
  }

  /// Parses, executes, and returns the raw wire line (with newline).
  std::string Execute(const std::string& line) {
    std::string out;
    auto request = ParseStoreRequest(line);
    if (!request.ok()) {
      AppendErrorResponse(request.status(), &out);
      return out;
    }
    ExecuteStoreRequest(*store_, request.value(), &out, &scratch_);
    return out;
  }

  RecursiveHierarchy tree_;
  std::unique_ptr<CommunityStore> store_;
  std::vector<uint32_t> scratch_;
};

TEST_F(StoreProtocolTest, ParsesEveryVerb) {
  auto communities = ParseStoreRequest("COMMUNITIES 5").value();
  EXPECT_EQ(communities.kind, StoreRequestKind::kCommunities);
  EXPECT_EQ(communities.node, 5u);

  auto paths = ParseStoreRequest("PATHS 0").value();
  EXPECT_EQ(paths.kind, StoreRequestKind::kPaths);
  EXPECT_EQ(paths.node, 0u);

  auto siblings = ParseStoreRequest("SIBLINGS 3 2").value();
  EXPECT_EQ(siblings.kind, StoreRequestKind::kSiblings);
  EXPECT_EQ(siblings.node, 3u);
  EXPECT_EQ(siblings.level, 2u);

  EXPECT_EQ(ParseStoreRequest("STATS").value().kind,
            StoreRequestKind::kStats);
  EXPECT_EQ(ParseStoreRequest("PING").value().kind, StoreRequestKind::kPing);
  EXPECT_EQ(ParseStoreRequest("SHUTDOWN").value().kind,
            StoreRequestKind::kShutdown);
}

TEST_F(StoreProtocolTest, ToleratesExtraSpacesBetweenTokens) {
  auto r = ParseStoreRequest("SIBLINGS   4  1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->node, 4u);
  EXPECT_EQ(r->level, 1u);
}

TEST_F(StoreProtocolTest, RejectsMalformedRequests) {
  const char* kBad[] = {
      "",                   // no verb
      "communities 1",      // verbs are case-sensitive
      "COMMUNITIES",        // missing node
      "COMMUNITIES x",      // non-numeric node
      "COMMUNITIES -1",     // signs are not unsigned integers
      "COMMUNITIES 1 2",    // trailing argument
      "SIBLINGS 1",         // missing level
      "SIBLINGS 1 2 3",     // trailing argument
      "PING 1",             // PING takes nothing
      "FETCH 1",            // unknown verb
  };
  for (const char* line : kBad) {
    SCOPED_TRACE(std::string("line='") + line + "'");
    auto r = ParseStoreRequest(line);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  }
}

TEST_F(StoreProtocolTest, RejectsNodeAndLevelBeyondU32) {
  auto node = ParseStoreRequest("COMMUNITIES 4294967296");
  ASSERT_FALSE(node.ok());
  EXPECT_TRUE(node.status().IsOutOfRange());
  auto level = ParseStoreRequest("SIBLINGS 1 4294967296");
  ASSERT_FALSE(level.ok());
  EXPECT_TRUE(level.status().IsOutOfRange());
}

TEST_F(StoreProtocolTest, CommunitiesPayloadIsCountThenIds) {
  EXPECT_EQ(Execute("COMMUNITIES 0"), "OK 1 0\n");
  EXPECT_EQ(Execute("COMMUNITIES 4"), "OK 2 0 1\n");
  EXPECT_EQ(Execute("COMMUNITIES 8"), "OK 0\n");  // uncovered
}

TEST_F(StoreProtocolTest, PathsPayloadIsLengthPrefixed) {
  // Node 4: two paths, [0,3] and [1] — "<num_paths> <len> <ids>...".
  EXPECT_EQ(Execute("PATHS 4"), "OK 2 2 0 3 1 1\n");
  EXPECT_EQ(Execute("PATHS 6"), "OK 1 2 1 4\n");
  EXPECT_EQ(Execute("PATHS 8"), "OK 0\n");
}

TEST_F(StoreProtocolTest, SiblingsPayloadMatchesStoreQuery) {
  EXPECT_EQ(Execute("SIBLINGS 0 0"), "OK 2 0 1\n");  // root level
  EXPECT_EQ(Execute("SIBLINGS 0 1"), "OK 2 2 3\n");
  EXPECT_EQ(Execute("SIBLINGS 6 1"), "OK 1 4\n");
  EXPECT_EQ(Execute("SIBLINGS 0 9"), "OK 0\n");  // past the deepest path
}

TEST_F(StoreProtocolTest, PingAndShutdownAnswerBareOk) {
  EXPECT_EQ(Execute("PING"), "OK\n");
  EXPECT_EQ(Execute("SHUTDOWN"), "OK\n");
}

TEST_F(StoreProtocolTest, StatsPayloadCarriesTheSnapshotMetadata) {
  const std::string line = Execute("STATS");
  EXPECT_NE(line.find("nodes=9 "), std::string::npos) << line;
  EXPECT_NE(line.find("edges=13 "), std::string::npos) << line;
  EXPECT_NE(line.find("communities=5 "), std::string::npos) << line;
  EXPECT_NE(line.find("roots=2 "), std::string::npos) << line;
  EXPECT_NE(line.find("levels=2 "), std::string::npos) << line;
  // Doubles print round-trip exact; these values are exactly
  // representable, so the text is exact too.
  EXPECT_NE(line.find("c=2.25 "), std::string::npos) << line;
  EXPECT_NE(line.find("lambda_min=-0.4375 "), std::string::npos) << line;
  char digest[32];
  std::snprintf(digest, sizeof(digest), "digest=%016" PRIx64,
                tree_.Digest());
  EXPECT_NE(line.find(digest), std::string::npos) << line;
}

TEST_F(StoreProtocolTest, NodeOutOfRangeIsAnErrLineNotACrash) {
  EXPECT_EQ(Execute("COMMUNITIES 99"), "ERR out_of_range node 99 >= 9\n");
  EXPECT_EQ(Execute("SIBLINGS 99 0"), "ERR out_of_range node 99 >= 9\n");
}

TEST_F(StoreProtocolTest, ResponsesAppendToTheCallerBuffer) {
  std::string out;
  ExecuteStoreRequest(*store_, ParseStoreRequest("PING").value(), &out,
                      &scratch_);
  ExecuteStoreRequest(*store_, ParseStoreRequest("COMMUNITIES 0").value(),
                      &out, &scratch_);
  EXPECT_EQ(out, "OK\nOK 1 0\n");
}

TEST_F(StoreProtocolTest, AppendErrorResponseEncodesCodeAndMessage) {
  std::string out;
  AppendErrorResponse(Status::IOError("boom"), &out);
  EXPECT_EQ(out, "ERR io_error boom\n");
}

TEST_F(StoreProtocolTest, ParseStoreResponseSplitsOkPayloads) {
  EXPECT_EQ(ParseStoreResponse("OK").value(), "");
  EXPECT_EQ(ParseStoreResponse("OK 2 0 1").value(), "2 0 1");
}

TEST_F(StoreProtocolTest, ParseStoreResponseReconstructsTypedErrors) {
  auto r = ParseStoreResponse("ERR out_of_range node 99 >= 9");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfRange());
  EXPECT_EQ(r.status().message(), "node 99 >= 9");

  auto invalid = ParseStoreResponse("ERR invalid_argument bad verb");
  ASSERT_FALSE(invalid.ok());
  EXPECT_TRUE(invalid.status().IsInvalidArgument());
}

TEST_F(StoreProtocolTest, ParseStoreResponseRejectsGarbage) {
  EXPECT_TRUE(ParseStoreResponse("HELLO").status().IsInternal());
  EXPECT_TRUE(ParseStoreResponse("").status().IsInternal());
  EXPECT_TRUE(ParseStoreResponse("ERR bogus_code x").status().IsInternal());
}

TEST_F(StoreProtocolTest, ErrorStatusRoundTripsThroughTheWireFormat) {
  // Status -> ERR line -> Status: code and message survive verbatim.
  const Status original = Status::OutOfRange("node 42 >= 9");
  std::string wire;
  AppendErrorResponse(original, &wire);
  wire.pop_back();  // the line reader strips the newline
  auto parsed = ParseStoreResponse(wire);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), original.code());
  EXPECT_EQ(parsed.status().message(), original.message());
}

TEST_F(StoreProtocolTest, EveryWireResponseParsesBackCleanly) {
  // The response parser accepts everything the executor can emit —
  // the invariant store_query's local mode relies on.
  for (const char* line :
       {"PING", "STATS", "COMMUNITIES 0", "COMMUNITIES 8", "PATHS 4",
        "SIBLINGS 0 0", "SIBLINGS 0 9"}) {
    SCOPED_TRACE(line);
    std::string wire = Execute(line);
    ASSERT_FALSE(wire.empty());
    ASSERT_EQ(wire.back(), '\n');
    wire.pop_back();
    auto parsed = ParseStoreResponse(wire);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  }
}

}  // namespace
}  // namespace oca

// Failure injection: no corrupted or truncated input may crash, loop, or
// silently yield an invalid graph — every failure must surface as a
// Status. Sweeps corruption positions with parameterized gtest.

#include <gtest/gtest.h>

#include <sstream>

#include "graph/graph_checks.h"
#include "io/cover_io.h"
#include "io/edge_list.h"
#include "io/graph_serialize.h"
#include "io/metis.h"
#include "io/snap.h"
#include "testing/test_graphs.h"
#include "util/random.h"

namespace oca {
namespace {

std::string SerializedKarate() {
  std::stringstream buffer;
  EXPECT_TRUE(WriteGraphBinary(testing::KarateClub(), buffer).ok());
  return buffer.str();
}

class BinaryCorruptionSweep : public ::testing::TestWithParam<int> {};

TEST_P(BinaryCorruptionSweep, TruncationAlwaysErrorsCleanly) {
  std::string bytes = SerializedKarate();
  size_t cut = bytes.size() * static_cast<size_t>(GetParam()) / 16;
  if (cut >= bytes.size()) GTEST_SKIP();
  std::stringstream in(bytes.substr(0, cut));
  auto result = ReadGraphBinary(in);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError() || result.status().IsInternal());
}

TEST_P(BinaryCorruptionSweep, BitFlipsNeverYieldInvalidGraphs) {
  // Flip one byte at a pseudo-random position; the read must either fail
  // with a Status or produce a graph that passes full validation (a flip
  // confined to padding or to a still-consistent neighbor id is legal).
  std::string bytes = SerializedKarate();
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  for (int trial = 0; trial < 32; ++trial) {
    std::string corrupted = bytes;
    size_t pos = static_cast<size_t>(rng.NextBounded(corrupted.size()));
    corrupted[pos] = static_cast<char>(corrupted[pos] ^
                                       (1 << rng.NextBounded(8)));
    std::stringstream in(corrupted);
    auto result = ReadGraphBinary(in);
    if (result.ok()) {
      EXPECT_TRUE(ValidateGraph(result.value()).ok())
          << "byte " << pos << " flip produced an invalid graph";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Positions, BinaryCorruptionSweep,
                         ::testing::Range(1, 16));

class TextGarbageSweep : public ::testing::TestWithParam<uint64_t> {};

std::string RandomText(uint64_t seed) {
  Rng rng(seed);
  std::string garbage;
  for (int i = 0; i < 400; ++i) {
    garbage.push_back(static_cast<char>(rng.NextBounded(96) + 32));
    if (rng.NextBool(0.05)) garbage.push_back('\n');
  }
  return garbage;
}

// Both text edge-list readers on `text`: a valid graph or an IOError.
void ExpectGraphOrIOError(const std::string& text) {
  std::istringstream edge_list(text);
  auto loaded = ReadEdgeListStream(edge_list);
  if (loaded.ok()) {
    EXPECT_TRUE(ValidateGraph(loaded.value().graph).ok());
  } else {
    EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();
  }
  std::istringstream snap(text);
  auto read = ReadSnapStream(snap);
  if (read.ok()) {
    EXPECT_TRUE(ValidateGraph(read.value().graph).ok());
  } else {
    EXPECT_TRUE(read.status().IsIOError()) << read.status().ToString();
  }
}

TEST_P(TextGarbageSweep, EdgeListNeverCrashesOnRandomBytes) {
  std::istringstream in(RandomText(GetParam()));
  auto result = ReadEdgeListStream(in);
  if (result.ok()) {
    EXPECT_TRUE(ValidateGraph(result.value().graph).ok());
  }
}

TEST_P(TextGarbageSweep, SnapNeverCrashesOnRandomBytes) {
  std::istringstream in(RandomText(GetParam() ^ 0x5A4E));
  auto result = ReadSnapStream(in);
  if (result.ok()) {
    EXPECT_TRUE(ValidateGraph(result.value().graph).ok());
  } else {
    EXPECT_TRUE(result.status().IsIOError());
  }
}

TEST_P(TextGarbageSweep, EdgeListByteFlipsAndTruncations) {
  // Mutants of a valid edge list: one random byte replaced, or the text
  // cut at a random point.
  std::stringstream buffer;
  ASSERT_TRUE(WriteEdgeListStream(testing::KarateClub(), buffer).ok());
  const std::string text = buffer.str();
  Rng rng(GetParam() ^ 0xF11B);
  for (int trial = 0; trial < 16; ++trial) {
    std::string flipped = text;
    const size_t pos = static_cast<size_t>(rng.NextBounded(text.size()));
    flipped[pos] = static_cast<char>(rng.NextBounded(256));
    ExpectGraphOrIOError(flipped);
    ExpectGraphOrIOError(
        text.substr(0, static_cast<size_t>(rng.NextBounded(text.size()))));
  }
}

TEST_P(TextGarbageSweep, CoverReaderNeverCrashesOnRandomBytes) {
  Rng rng(GetParam() ^ 0xC0FFEE);
  std::string garbage;
  for (int i = 0; i < 400; ++i) {
    garbage.push_back(static_cast<char>(rng.NextBounded(96) + 32));
    if (rng.NextBool(0.05)) garbage.push_back('\n');
  }
  std::istringstream in(garbage);
  auto result = ReadCoverStream(in);  // ok or IOError, never UB
  if (!result.ok()) {
    EXPECT_TRUE(result.status().IsIOError());
  }
}

TEST_P(TextGarbageSweep, MetisReaderNeverCrashesOnMangledValid) {
  // Start from a valid file, splice random digits/spaces somewhere.
  std::stringstream buffer;
  ASSERT_TRUE(WriteMetisStream(testing::KarateClub(), buffer).ok());
  std::string text = buffer.str();
  Rng rng(GetParam() ^ 0xBEEF);
  size_t pos = static_cast<size_t>(rng.NextBounded(text.size()));
  text.insert(pos, "9999 ");
  std::istringstream in(text);
  auto result = ReadMetisStream(in);
  if (result.ok()) {
    EXPECT_TRUE(ValidateGraph(result.value()).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextGarbageSweep,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace oca

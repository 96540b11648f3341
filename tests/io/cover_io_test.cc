#include "io/cover_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "testing/temp_path.h"

namespace oca {
namespace {

TEST(ReadCoverTest, ParsesCommunitiesPerLine) {
  std::istringstream in("# ground truth\n1 2 3\n4 5\n6\n");
  Cover cover = ReadCoverStream(in).value();
  ASSERT_EQ(cover.size(), 3u);
  EXPECT_EQ(cover[0], (Community{1, 2, 3}));
  EXPECT_EQ(cover[1], (Community{4, 5}));
  EXPECT_EQ(cover[2], (Community{6}));
}

TEST(ReadCoverTest, SkipsEmptyLines) {
  std::istringstream in("\n1 2\n\n3 4\n");
  Cover cover = ReadCoverStream(in).value();
  EXPECT_EQ(cover.size(), 2u);
}

TEST(ReadCoverTest, MalformedTokenErrors) {
  std::istringstream in("1 2\n3 x 4\n");
  auto result = ReadCoverStream(in);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST(ReadCoverTest, MissingFileErrors) {
  EXPECT_TRUE(ReadCoverFile("/no/such/cover.txt").status().IsIOError());
}

TEST(CoverRoundTripTest, StreamRoundTrip) {
  Cover cover;
  cover.Add({5, 1, 3});
  cover.Add({2, 4});
  cover.Canonicalize();
  std::stringstream buffer;
  auto written = WriteCoverStream(cover, buffer);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value(), cover.size());
  Cover loaded = ReadCoverStream(buffer).value();
  loaded.Canonicalize();
  EXPECT_EQ(loaded, cover);
}

TEST(CoverRoundTripTest, FileRoundTrip) {
  Cover cover;
  cover.Add({0, 1, 2});
  cover.Add({2, 3, 4});  // overlapping
  cover.Canonicalize();
  std::string path = testing::TestTempPath("cover_test.txt");
  auto written = WriteCoverFile(cover, path);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value(), cover.size());
  Cover loaded = ReadCoverFile(path).value();
  loaded.Canonicalize();
  EXPECT_EQ(loaded, cover);
  std::remove(path.c_str());
}

TEST(CoverRoundTripTest, WriterErrorsAreTyped) {
  Cover cover;
  cover.Add({0, 1});
  // Dead stream and unwritable path both surface as kIOError through
  // the Result<size_t> writers, same discipline as the store writers.
  std::ostringstream dead;
  dead.setstate(std::ios::badbit);
  EXPECT_TRUE(WriteCoverStream(cover, dead).status().IsIOError());
  EXPECT_TRUE(
      WriteCoverFile(cover, "/no/such/dir/cover.txt").status().IsIOError());
}

TEST(ReadCoverTest, EmptyInput) {
  std::istringstream in("");
  Cover cover = ReadCoverStream(in).value();
  EXPECT_TRUE(cover.empty());
}

}  // namespace
}  // namespace oca

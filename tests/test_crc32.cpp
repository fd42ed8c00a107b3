// CRC-32 contract: known answers, seed chaining, and the slicing-by-8
// implementation checked against a plain bytewise reference over every
// short length at every alignment, random seeds, and random streaming
// splits of megabyte buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>

#include "common/crc32.h"

namespace muxlink {
namespace {

// Bytewise reference: one table lookup per byte, same polynomial and
// conditioning as common::crc32.
std::uint32_t crc32_reference(std::string_view data, std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (unsigned char byte : data) c = table[(c ^ byte) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng());
  return s;
}

TEST(Crc32, KnownAnswers) {
  // IEEE 802.3 check value and a couple of anchors against bit rot.
  EXPECT_EQ(common::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(common::crc32(""), 0u);
  EXPECT_EQ(common::crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(common::crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
  EXPECT_EQ(crc32_reference("123456789"), 0xCBF43926u);
}

TEST(Crc32, SeedChainingAndReset) {
  const std::string a = "hello, ";
  const std::string b = "zoo";
  EXPECT_EQ(common::crc32(b, common::crc32(a)), common::crc32(a + b));

  common::Crc32 crc;
  crc.update(a);
  crc.update(b.data(), b.size());
  EXPECT_EQ(crc.value(), common::crc32(a + b));
  crc.reset();
  EXPECT_EQ(crc.value(), 0u);
  crc.update("123456789");
  EXPECT_EQ(crc.value(), 0xCBF43926u);
}

// Every length across the 8-byte block boundary and the bytewise tail, at
// every start alignment, one-shot and streaming.
TEST(Crc32, MatchesReferenceAtEveryShortLengthAndOffset) {
  const std::string buf = random_bytes(257 + 8, 3);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const std::string_view s = std::string_view(buf).substr(off, len);
      const std::uint32_t want = crc32_reference(s);
      ASSERT_EQ(common::crc32(s), want) << "off=" << off << " len=" << len;
      common::Crc32 crc;
      crc.update(s.data(), s.size());
      ASSERT_EQ(crc.value(), want) << "off=" << off << " len=" << len;
    }
  }
}

TEST(Crc32, MatchesReferenceFromRandomSeeds) {
  std::mt19937_64 rng(5);
  const std::string buf = random_bytes(4096, 7);
  for (int i = 0; i < 200; ++i) {
    const auto seed = static_cast<std::uint32_t>(rng());
    const std::size_t off = rng() % 64;
    const std::size_t len = rng() % (buf.size() - off);
    const std::string_view s = std::string_view(buf).substr(off, len);
    ASSERT_EQ(common::crc32(s, seed), crc32_reference(s, seed))
        << "seed=" << seed << " off=" << off << " len=" << len;
    common::Crc32 crc(seed);
    crc.update(s);
    ASSERT_EQ(crc.value(), crc32_reference(s, seed));
  }
}

// The zoo loader streams mapped blobs through Crc32 in chunks; any split
// of a buffer must give the reference CRC of the whole.
TEST(Crc32, RandomStreamingSplitsOfLargeBuffersMatchReference) {
  std::mt19937_64 rng(9);
  for (int round = 0; round < 3; ++round) {
    const std::size_t n = (1u << 20) + rng() % (2u << 20);  // 1–3 MiB
    const std::string buf = random_bytes(n, 100 + round);
    const std::uint32_t want = crc32_reference(buf);
    ASSERT_EQ(common::crc32(buf), want) << "n=" << n;

    common::Crc32 crc;
    std::size_t off = 0;
    while (off < n) {
      // Mostly odd-sized pieces, with empty and single-byte ones mixed in.
      const std::size_t piece = rng() % 4 == 0 ? rng() % 2 : rng() % 70001;
      const std::size_t take = std::min(piece, n - off);
      crc.update(std::string_view(buf).substr(off, take));
      off += take;
    }
    EXPECT_EQ(crc.value(), want) << "n=" << n;
  }
}

}  // namespace
}  // namespace muxlink

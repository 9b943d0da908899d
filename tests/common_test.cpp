// Unit tests for src/common: BitCode semantics, strong types, contracts,
// and the radix sort's constant-digit skip at key widths that are not a
// multiple of 8 (the partial top digit is exactly where a skip off-by-one
// would hide — see docs/performance.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/bitcode.hpp"
#include "common/cli.hpp"
#include "common/ensure.hpp"
#include "common/radix.hpp"
#include "common/types.hpp"

namespace pet {
namespace {

TEST(BitCode, DefaultIsEmpty) {
  const BitCode code;
  EXPECT_EQ(code.width(), 0u);
  EXPECT_EQ(code.value(), 0u);
  EXPECT_TRUE(code.empty());
  EXPECT_EQ(code.to_string(), "");
}

TEST(BitCode, ConstructsWithWidthAndValue) {
  const BitCode code(0b0011, 4);
  EXPECT_EQ(code.width(), 4u);
  EXPECT_EQ(code.value(), 0b0011u);
  EXPECT_EQ(code.to_string(), "0011");
}

TEST(BitCode, RejectsValueWiderThanWidth) {
  EXPECT_THROW(BitCode(0b10000, 4), PreconditionError);
  EXPECT_THROW(BitCode(1, 0), PreconditionError);
}

TEST(BitCode, RejectsWidthBeyond64) {
  EXPECT_THROW(BitCode(0, 65), PreconditionError);
}

TEST(BitCode, Accepts64BitFullWidth) {
  const BitCode code(~std::uint64_t{0}, 64);
  EXPECT_EQ(code.width(), 64u);
  EXPECT_TRUE(code.bit(0));
  EXPECT_TRUE(code.bit(63));
}

TEST(BitCode, BitIndexingIsMsbFirst) {
  const BitCode code = BitCode::parse("1010");
  EXPECT_TRUE(code.bit(0));
  EXPECT_FALSE(code.bit(1));
  EXPECT_TRUE(code.bit(2));
  EXPECT_FALSE(code.bit(3));
  EXPECT_THROW(code.bit(4), PreconditionError);
}

TEST(BitCode, ParseRoundTrips) {
  for (const auto* text : {"0", "1", "0001", "0110", "1011", "1110",
                           "000011", "11111111111111111111111111111111"}) {
    EXPECT_EQ(BitCode::parse(text).to_string(), text);
  }
}

TEST(BitCode, ParseRejectsNonBinary) {
  EXPECT_THROW(BitCode::parse("01x1"), ConfigError);
  EXPECT_THROW(BitCode::parse("2"), ConfigError);
}

TEST(BitCode, ParseRejectsOverlongLiteral) {
  EXPECT_THROW(BitCode::parse(std::string(65, '0')), ConfigError);
}

TEST(BitCode, PrefixExtractsLeadingBits) {
  const BitCode code = BitCode::parse("110101");
  EXPECT_EQ(code.prefix(0), BitCode{});
  EXPECT_EQ(code.prefix(3).to_string(), "110");
  EXPECT_EQ(code.prefix(6), code);
  EXPECT_THROW(code.prefix(7), PreconditionError);
}

TEST(BitCode, MatchesPrefixAgreesWithPaperExample) {
  // Paper Fig. 1: tags 0001, 0110, 1011, 1110; estimating path 0011.
  const BitCode path = BitCode::parse("0011");
  EXPECT_TRUE(BitCode::parse("0001").matches_prefix(path, 1));
  EXPECT_TRUE(BitCode::parse("0110").matches_prefix(path, 1));
  EXPECT_FALSE(BitCode::parse("1011").matches_prefix(path, 1));
  EXPECT_TRUE(BitCode::parse("0001").matches_prefix(path, 2));
  EXPECT_FALSE(BitCode::parse("0110").matches_prefix(path, 2));
  // No tag matches 001*: the paper's idle slot at prefix length 3.
  for (const auto* tag : {"0001", "0110", "1011", "1110"}) {
    EXPECT_FALSE(BitCode::parse(tag).matches_prefix(path, 3)) << tag;
  }
}

TEST(BitCode, CommonPrefixLenMatchesManualCases) {
  EXPECT_EQ(BitCode::parse("0011").common_prefix_len(BitCode::parse("0001")),
            2u);
  EXPECT_EQ(BitCode::parse("0011").common_prefix_len(BitCode::parse("0011")),
            4u);
  EXPECT_EQ(BitCode::parse("1011").common_prefix_len(BitCode::parse("0011")),
            0u);
  EXPECT_EQ(BitCode{}.common_prefix_len(BitCode{}), 0u);
}

TEST(BitCode, CommonPrefixLenRequiresEqualWidths) {
  EXPECT_THROW(
      BitCode::parse("01").common_prefix_len(BitCode::parse("011")),
      PreconditionError);
}

TEST(BitCode, ExtendedAppendsBranchBits) {
  BitCode code;
  code = code.extended(true);
  code = code.extended(false);
  code = code.extended(true);
  EXPECT_EQ(code.to_string(), "101");
}

TEST(BitCode, ExtendedRefusesToGrowPast64) {
  BitCode code(~std::uint64_t{0}, 64);
  EXPECT_THROW((void)code.extended(true), PreconditionError);
}

TEST(BitCode, SixtyFourBitPrefixOperations) {
  const BitCode a(0x8000000000000000ULL, 64);
  const BitCode b(0x8000000000000001ULL, 64);
  EXPECT_EQ(a.common_prefix_len(b), 63u);
  EXPECT_TRUE(a.matches_prefix(b, 63));
  EXPECT_FALSE(a.matches_prefix(b, 64));
}

TEST(BitCode, OrderingIsByWidthThenValue) {
  EXPECT_LT(BitCode::parse("1"), BitCode::parse("00"));
  EXPECT_LT(BitCode::parse("01"), BitCode::parse("10"));
}

/// matches_prefix(other, len) must equal prefix(len) == other.prefix(len)
/// for every length; exercised across widths.
class BitCodePrefixProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>> {};

TEST_P(BitCodePrefixProperty, MatchesPrefixEqualsPrefixComparison) {
  const auto [width, salt] = GetParam();
  // Two deterministic codes of the given width.
  const std::uint64_t mask =
      width == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
  const BitCode a((0x9e3779b97f4a7c15ULL * (salt + 1)) & mask, width);
  const BitCode b((0xbf58476d1ce4e5b9ULL * (salt + 3)) & mask, width);
  for (unsigned len = 0; len <= width; ++len) {
    EXPECT_EQ(a.matches_prefix(b, len), a.prefix(len) == b.prefix(len))
        << "width=" << width << " len=" << len;
  }
  // common_prefix_len is the largest matching length.
  const unsigned lcp = a.common_prefix_len(b);
  EXPECT_TRUE(a.matches_prefix(b, lcp));
  if (lcp < width) EXPECT_FALSE(a.matches_prefix(b, lcp + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Widths, BitCodePrefixProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 7u, 16u, 32u, 63u, 64u),
                       ::testing::Values(0u, 1u, 2u, 3u, 4u)));

TEST(StrongTypes, DepthHeightConversionsRoundTrip) {
  const unsigned h = 32;
  for (unsigned d = 0; d <= h; ++d) {
    const GrayHeight g = to_gray_height(PrefixDepth{d}, h);
    EXPECT_EQ(g.value, h - d);
    EXPECT_EQ(to_prefix_depth(g, h).value, d);
  }
  EXPECT_THROW(to_gray_height(PrefixDepth{33}, 32), PreconditionError);
}

TEST(StrongTypes, SlotOutcomeNonemptyClassification) {
  EXPECT_FALSE(is_nonempty(SlotOutcome::kIdle));
  EXPECT_TRUE(is_nonempty(SlotOutcome::kSingleton));
  EXPECT_TRUE(is_nonempty(SlotOutcome::kCollision));
}

TEST(Ensure, ExpectsThrowsWithLocation) {
  try {
    expects(false, "boom");
    FAIL() << "expects(false) must throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("common_test"), std::string::npos);
  }
}

TEST(Ensure, ExpectsPassesSilently) {
  EXPECT_NO_THROW(expects(true, "never"));
}

// ---------------------------------------------------------------------------
// radix_sort_u64: the constant-digit skip at key_bits not a multiple of 8.
// The skip fires when src[0]'s digit bucket holds all n keys; these cases
// pin it for partial top digits, for skips decided *after* a buffer swap,
// and for near-constant digits that must NOT be skipped.

namespace {
void expect_radix_sorts(std::vector<std::uint64_t> values,
                        unsigned key_bits) {
  std::vector<std::uint64_t> want = values;
  std::sort(want.begin(), want.end());
  std::vector<std::uint64_t> scratch;
  radix_sort_u64(values, scratch, key_bits);
  ASSERT_EQ(values, want) << "key_bits=" << key_bits;
}

// Deterministic scramble so the cases need no rng dependency.
constexpr std::uint64_t scramble(std::uint64_t x) {
  x ^= x >> 12;
  x *= 0x2545f4914f6cdd1dULL;
  x ^= x >> 27;
  return x;
}
}  // namespace

TEST(Radix, PartialTopDigitConstantIsSkippedCorrectly) {
  // key_bits = 13: digit 1 covers bits 8..15 but only 8..12 carry weight.
  // Fix those bits; only the low byte discriminates, so the second pass is
  // the skip path and the sorted run must still land back in `values`.
  for (const unsigned key_bits : {9u, 13u, 17u, 23u, 33u, 63u}) {
    const unsigned top_shift = 8 * ((key_bits - 1) / 8);
    const std::uint64_t top = (std::uint64_t{1} << (key_bits - 1)) |
                              (std::uint64_t{0x15} << top_shift) %
                                  (std::uint64_t{1} << key_bits);
    std::vector<std::uint64_t> values(777);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = (top & ~std::uint64_t{0xff}) | (scramble(i) & 0xff);
    }
    expect_radix_sorts(std::move(values), key_bits);
  }
}

TEST(Radix, ConstantLowByteSkipsFirstPassOnly) {
  // Low byte fixed, everything above it varies: pass 0 skips, the higher
  // passes still run, including the partial top digit.
  for (const unsigned key_bits : {13u, 29u, 47u, 63u}) {
    const std::uint64_t mask = (std::uint64_t{1} << key_bits) - 1;
    std::vector<std::uint64_t> values(500);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = ((scramble(i) & mask) & ~std::uint64_t{0xff}) | 0x42;
    }
    expect_radix_sorts(std::move(values), key_bits);
  }
}

TEST(Radix, SkipDecisionAfterBufferSwapUsesSwappedFront) {
  // key_bits = 24 with a constant *middle* digit: pass 0 scatters (buffers
  // swap), then the pass-1 skip must consult the swapped front element.
  std::vector<std::uint64_t> values(1000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = ((scramble(i) & 0xff) << 16) | (std::uint64_t{0x77} << 8) |
                (scramble(i ^ 0xabc) & 0xff);
  }
  expect_radix_sorts(std::move(values), 24);
}

TEST(Radix, NearConstantDigitIsNotSkipped) {
  // All but one key share the front element's top digit: the skip must not
  // fire, and the one outlier has to travel to its sorted position.
  for (const unsigned key_bits : {13u, 21u, 63u}) {
    std::vector<std::uint64_t> values(300, std::uint64_t{1});
    values[257] = (std::uint64_t{1} << (key_bits - 1)) | 1u;  // top bit set
    expect_radix_sorts(std::move(values), key_bits);
  }
}

TEST(Radix, SubByteKeyWidths) {
  // key_bits < 8: a single partial digit, both the varying and the
  // all-equal (fully skipped) shapes.
  for (const unsigned key_bits : {1u, 3u, 5u, 7u}) {
    const std::uint64_t mask = (std::uint64_t{1} << key_bits) - 1;
    std::vector<std::uint64_t> varying(257);
    for (std::size_t i = 0; i < varying.size(); ++i) {
      varying[i] = scramble(i) & mask;
    }
    expect_radix_sorts(std::move(varying), key_bits);
    expect_radix_sorts(
        std::vector<std::uint64_t>(64, std::uint64_t{1} & mask), key_bits);
  }
}

TEST(Radix, EveryKeyWidthSortsDenseAndSparseShapes) {
  // Sweep every key_bits 1..64: dense low values (top digits constant 0)
  // and sparse values pinned at the top of the range (low digits mostly
  // constant).  Catches any width where digit count or skip misclassifies.
  for (unsigned key_bits = 1; key_bits <= 64; ++key_bits) {
    const std::uint64_t mask = key_bits == 64
                                   ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << key_bits) - 1;
    std::vector<std::uint64_t> dense(123);
    std::vector<std::uint64_t> sparse(123);
    for (std::size_t i = 0; i < dense.size(); ++i) {
      dense[i] = scramble(i) % 7;
      sparse[i] = mask - (scramble(i) % 7);
    }
    expect_radix_sorts(std::move(dense), key_bits);
    expect_radix_sorts(std::move(sparse), key_bits);
  }
}

cli::Args command_line(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "tool");
  return cli::Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ReadsWholeValues) {
  const cli::Args args = command_line(
      {"--n=18446744073709551615", "--threads=8", "--eps=0.05", "--e=1e-3"});
  EXPECT_EQ(args.get("n", std::uint64_t{0}), UINT64_MAX);
  EXPECT_EQ(args.get("threads", 0u), 8u);
  EXPECT_EQ(args.get("eps", 0.0), 0.05);
  EXPECT_EQ(args.get("e", 0.0), 1e-3);
  EXPECT_EQ(args.get("absent", 7u), 7u);
}

TEST(Cli, RejectsPartialMalformedAndOutOfRangeValues) {
  for (const char* text : {"", "abc", "12x", "-1", "99999999999999999999"}) {
    const std::string arg = std::string("--n=") + text;
    const cli::Args args = command_line({arg.c_str()});
    EXPECT_THROW((void)args.get("n", std::uint64_t{0}), cli::UsageError)
        << text;
    EXPECT_THROW((void)args.get("n", 0u), cli::UsageError) << text;
  }
  for (const char* text : {"", "abc", "0.05x"}) {
    const std::string arg = std::string("--eps=") + text;
    EXPECT_THROW((void)command_line({arg.c_str()}).get("eps", 0.0),
                 cli::UsageError)
        << text;
  }
  try {
    (void)command_line({"--eps=0.05x"}).get("eps", 0.0);
    FAIL() << "0.05x was read";
  } catch (const cli::UsageError& error) {
    EXPECT_STREQ(error.what(), "bad value in --eps=0.05x");
  }
}

TEST(Cli, FlagsTakeNoValueAndValuesNeedOne) {
  const cli::Args args = command_line({"--quiet", "--n", "--csv=1"});
  EXPECT_TRUE(args.flag("quiet"));
  EXPECT_FALSE(args.flag("absent"));
  EXPECT_THROW((void)args.get("n", 0u), cli::UsageError);
  EXPECT_THROW((void)args.get("n", std::string()), cli::UsageError);
  EXPECT_THROW((void)args.flag("csv"), cli::UsageError);
  EXPECT_TRUE(command_line({"-h"}).flag("help"));
  EXPECT_THROW(command_line({"-x"}).refuse_unread(), cli::UsageError);
}

TEST(Cli, RepeatedKeysKeepTheirOrder) {
  const cli::Args args =
      command_line({"--require=b.", "--metrics=m.json", "--require=a."});
  EXPECT_EQ(args.all("require"), (std::vector<std::string>{"b.", "a."}));
  EXPECT_EQ(args.get("require", std::string()), "a.");
  EXPECT_TRUE(args.all("absent").empty());
}

TEST(Cli, KeepsPositionalsInOrder) {
  const cli::Args args =
      command_line({"golden.json", "--rtol=0.1", "candidate.json"});
  EXPECT_EQ(args.positionals(),
            (std::vector<std::string>{"golden.json", "candidate.json"}));
  EXPECT_EQ(args.get("rtol", 0.0), 0.1);
  EXPECT_NO_THROW(args.refuse_unread(2));
  EXPECT_THROW(args.refuse_unread(1), cli::UsageError);
}

TEST(Cli, RefusesKeysTheCommandDidNotRead) {
  const cli::Args args = command_line({"--id=3", "--populaton=3"});
  EXPECT_EQ(args.get("id", 0u), 3u);
  EXPECT_EQ(args.get("population", 0u), 0u);
  try {
    args.refuse_unread();
    FAIL() << "unknown key accepted";
  } catch (const cli::UsageError& error) {
    EXPECT_STREQ(error.what(), "unknown option --populaton");
  }
  EXPECT_EQ(args.get("populaton", 0u), 3u);
  EXPECT_NO_THROW(args.refuse_unread());
}

TEST(Cli, ChoiceAcceptsOnlyListedValues) {
  const cli::Args args = command_line({"--mac=gen2", "--sort=bogus"});
  EXPECT_EQ(args.choice("mac", "ideal", {"ideal", "gen2"}), "gen2");
  EXPECT_EQ(args.choice("absent", "ideal", {"ideal", "gen2"}), "ideal");
  EXPECT_THROW((void)args.choice("sort", "id", {"id", "rate"}),
               cli::UsageError);
}

}  // namespace
}  // namespace pet

// Unit tests for the base substrate: IDs, time intervals, Result/Status,
// checked math, hashing and string utilities.
#include <gtest/gtest.h>

#include <unordered_set>

#include "base/assert.hpp"
#include "base/hash.hpp"
#include "base/ids.hpp"
#include "base/math.hpp"
#include "base/result.hpp"
#include "base/strings.hpp"
#include "base/time.hpp"

namespace ezrt {
namespace {

// -- Ids --------------------------------------------------------------------

TEST(Ids, DefaultConstructedIsInvalid) {
  PlaceId id;
  EXPECT_FALSE(id.valid());
}

TEST(Ids, ExplicitValueIsValid) {
  PlaceId id(3);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 3u);
}

TEST(Ids, ComparesByValue) {
  EXPECT_EQ(PlaceId(1), PlaceId(1));
  EXPECT_NE(PlaceId(1), PlaceId(2));
  EXPECT_LT(PlaceId(1), PlaceId(2));
}

TEST(Ids, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<PlaceId, TransitionId>);
  static_assert(!std::is_same_v<TaskId, ProcessorId>);
}

TEST(Ids, HashableInUnorderedContainers) {
  std::unordered_set<TaskId> set;
  set.insert(TaskId(1));
  set.insert(TaskId(2));
  set.insert(TaskId(1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(IdVector, PushBackMintsSequentialIds) {
  IdVector<PlaceId, int> v;
  EXPECT_EQ(v.push_back(10), PlaceId(0));
  EXPECT_EQ(v.push_back(20), PlaceId(1));
  EXPECT_EQ(v[PlaceId(1)], 20);
}

TEST(IdVector, IdsRangeIteratesAll) {
  IdVector<TaskId, int> v;
  v.push_back(1);
  v.push_back(2);
  v.push_back(3);
  std::uint32_t expected = 0;
  for (TaskId id : v.ids()) {
    EXPECT_EQ(id.value(), expected++);
  }
  EXPECT_EQ(expected, 3u);
}

// -- TimeInterval -------------------------------------------------------------

TEST(TimeInterval, DefaultIsZeroZero) {
  TimeInterval i;
  EXPECT_TRUE(i.is_zero());
  EXPECT_TRUE(i.punctual());
  EXPECT_TRUE(i.bounded());
}

TEST(TimeInterval, ExactlyFactory) {
  const auto i = TimeInterval::exactly(7);
  EXPECT_EQ(i.eft(), 7u);
  EXPECT_EQ(i.lft(), 7u);
  EXPECT_TRUE(i.punctual());
}

TEST(TimeInterval, AtLeastIsUnbounded) {
  const auto i = TimeInterval::at_least(3);
  EXPECT_FALSE(i.bounded());
  EXPECT_TRUE(i.contains(1'000'000));
  EXPECT_FALSE(i.contains(2));
}

TEST(TimeInterval, RejectsInvertedBounds) {
  EXPECT_THROW(TimeInterval(5, 4), ContractViolation);
}

TEST(TimeInterval, ContainsIsInclusive) {
  const TimeInterval i(2, 4);
  EXPECT_FALSE(i.contains(1));
  EXPECT_TRUE(i.contains(2));
  EXPECT_TRUE(i.contains(4));
  EXPECT_FALSE(i.contains(5));
}

TEST(TimeInterval, ToStringFormats) {
  EXPECT_EQ(TimeInterval(2, 4).to_string(), "[2,4]");
  EXPECT_EQ(TimeInterval::at_least(1).to_string(), "[1,inf]");
}

TEST(SaturatingDeadline, AddsSmallBudgetsAndClampsHugeOnes) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  EXPECT_EQ(saturating_deadline(t0, 0), t0);
  EXPECT_EQ(saturating_deadline(t0, 1500), t0 + std::chrono::milliseconds(1500));
  // Past the clock's range in nanoseconds, and past int64 milliseconds.
  for (const std::uint64_t ms :
       {std::uint64_t{9223372036854775}, std::uint64_t{9223372036854775807},
        ~std::uint64_t{0}}) {
    EXPECT_EQ(saturating_deadline(t0, ms), Clock::time_point::max()) << ms;
  }
  // Representable as a span, but not from a late start.
  EXPECT_EQ(saturating_deadline(Clock::time_point::max() -
                                    std::chrono::milliseconds(1),
                                2),
            Clock::time_point::max());
}

// -- Result / Status ----------------------------------------------------------

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = make_error(ErrorCode::kParseError, "boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kParseError);
  EXPECT_EQ(r.error().message(), "boom");
}

TEST(Result, ValueOnErrorThrowsWithContext) {
  Result<int> r = make_error(ErrorCode::kIoError, "disk gone");
  try {
    (void)r.value();
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("disk gone"), std::string::npos);
  }
}

TEST(Result, ValueOrFallsBack) {
  Result<int> ok(1);
  Result<int> bad = make_error(ErrorCode::kInternal, "x");
  EXPECT_EQ(ok.value_or(9), 1);
  EXPECT_EQ(bad.value_or(9), 9);
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
}

TEST(Status, CarriesError) {
  Status s = make_error(ErrorCode::kValidationError, "bad spec");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kValidationError);
}

TEST(Error, ToStringIncludesCategory) {
  const Error e = make_error(ErrorCode::kInfeasible, "no schedule");
  EXPECT_EQ(e.to_string(), "infeasible: no schedule");
}

TEST(ErrorCode, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_STRNE(to_string(static_cast<ErrorCode>(c)), "unknown");
  }
}

// -- Math ---------------------------------------------------------------------

TEST(Math, CheckedMulHappyPath) {
  auto r = checked_mul(6, 7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42u);
}

TEST(Math, CheckedMulOverflows) {
  EXPECT_FALSE(checked_mul(1ull << 40, 1ull << 40).ok());
}

TEST(Math, CheckedAddOverflows) {
  EXPECT_FALSE(checked_add(~0ull - 1, 5).ok());
  EXPECT_TRUE(checked_add(1, 2).ok());
}

TEST(Math, LcmBasics) {
  auto r = checked_lcm(4, 6);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 12u);
}

TEST(Math, LcmRejectsZero) {
  EXPECT_FALSE(checked_lcm(0, 5).ok());
}

TEST(Math, SchedulePeriodOfMinePumpPeriods) {
  // Table 1 periods: LCM must be 30000 (drives the 782-instance count).
  const Time periods[] = {80, 500, 1000, 500, 500, 2500, 6000, 500, 500, 500};
  auto ps = schedule_period(periods);
  ASSERT_TRUE(ps.ok());
  EXPECT_EQ(ps.value(), 30000u);
}

TEST(Math, SchedulePeriodEmptyIsError) {
  EXPECT_FALSE(schedule_period({}).ok());
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(1, 5), 1u);
}

// -- Hash ---------------------------------------------------------------------

TEST(Hash, DeterministicAcrossCalls) {
  const std::uint32_t data[] = {1, 2, 3, 4};
  EXPECT_EQ(hash_span<std::uint32_t>(data), hash_span<std::uint32_t>(data));
}

TEST(Hash, OrderSensitive) {
  const std::uint32_t a[] = {1, 2};
  const std::uint32_t b[] = {2, 1};
  EXPECT_NE(hash_span<std::uint32_t>(a), hash_span<std::uint32_t>(b));
}

TEST(Hash, SeedChangesResult) {
  const std::uint32_t data[] = {7};
  EXPECT_NE(hash_span<std::uint32_t>(data, 1),
            hash_span<std::uint32_t>(data, 2));
}

TEST(Hash, SparseVectorsDiffer) {
  // Markings are mostly-zero vectors; adjacent single-token differences
  // must produce different hashes.
  std::vector<std::uint32_t> a(64, 0);
  std::vector<std::uint32_t> b(64, 0);
  a[10] = 1;
  b[11] = 1;
  EXPECT_NE(hash_span<std::uint32_t>(std::span<const std::uint32_t>(a)),
            hash_span<std::uint32_t>(std::span<const std::uint32_t>(b)));
}

// -- Strings ------------------------------------------------------------------

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  x y \n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, ParseUintAcceptsTrimmed) {
  auto r = parse_uint(" 42 ");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42u);
}

TEST(Strings, ParseUintRejectsGarbage) {
  EXPECT_FALSE(parse_uint("42x").ok());
  EXPECT_FALSE(parse_uint("").ok());
  EXPECT_FALSE(parse_uint("-1").ok());
}

TEST(Strings, ParseIntHandlesNegatives) {
  auto r = parse_int("-17");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), -17);
}

TEST(Strings, CIdentifierPredicate) {
  EXPECT_TRUE(is_c_identifier("task_1"));
  EXPECT_TRUE(is_c_identifier("_x"));
  EXPECT_FALSE(is_c_identifier("1x"));
  EXPECT_FALSE(is_c_identifier("a-b"));
  EXPECT_FALSE(is_c_identifier(""));
}

TEST(Strings, SanitizeCIdentifier) {
  EXPECT_EQ(sanitize_c_identifier("CH4-high"), "CH4_high");
  EXPECT_EQ(sanitize_c_identifier("1st"), "t1st");
  EXPECT_TRUE(is_c_identifier(sanitize_c_identifier("weird name!")));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("x", "", "y"), "x");
}

TEST(Assert, CheckThrowsOnViolation) {
  EXPECT_THROW(EZRT_CHECK(false, "must not hold"), ContractViolation);
}

TEST(Assert, CheckPassesSilently) {
  EXPECT_NO_THROW(EZRT_CHECK(true, "fine"));
}

}  // namespace
}  // namespace ezrt

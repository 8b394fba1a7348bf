#include "core/predictors.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "store/encoding.h"

namespace blameit::core {
namespace {

TEST(DurationPredictor, NoHistoryGivesOneBucketPrior) {
  const DurationPredictor pred;
  EXPECT_DOUBLE_EQ(pred.expected_remaining(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(pred.expected_remaining(1, 10), 1.0);
}

TEST(DurationPredictor, AllShortIncidentsPredictShortRemaining) {
  DurationPredictor pred;
  for (int i = 0; i < 50; ++i) pred.record_duration(1, 1);
  // Every historical issue lasted exactly 1 bucket; after 1 observed bucket
  // nothing more is expected.
  EXPECT_DOUBLE_EQ(pred.expected_remaining(1, 1), 0.0);
}

TEST(DurationPredictor, LongTailRaisesExpectationWithElapsedTime) {
  DurationPredictor pred{96};
  // Long-tailed history: mostly 1-bucket issues, a few 48-bucket ones.
  for (int i = 0; i < 90; ++i) pred.record_duration(2, 1);
  for (int i = 0; i < 10; ++i) pred.record_duration(2, 48);
  const double fresh = pred.expected_remaining(2, 1);
  const double seasoned = pred.expected_remaining(2, 10);
  // Fresh issue: 10% chance of being long-lived → E ≈ 47·0.1 = 4.7.
  EXPECT_NEAR(fresh, 4.7, 0.5);
  // Having survived 10 buckets, the issue is necessarily one of the
  // long-lived ones, so much more time remains (the §5.3 insight).
  EXPECT_GT(seasoned, fresh * 3.0);
  EXPECT_NEAR(seasoned, 38.0, 1.0);  // all survivors last to 48
}

TEST(DurationPredictor, ConditionalSurvival) {
  DurationPredictor pred;
  for (int i = 0; i < 50; ++i) pred.record_duration(3, 2);
  for (int i = 0; i < 50; ++i) pred.record_duration(3, 10);
  // P(D >= 3 | D >= 2) = 50/100: only the 10-bucket incidents continue.
  EXPECT_DOUBLE_EQ(pred.conditional_survival(3, 2, 1), 0.5);
  // P(D >= 2 | D >= 1) = 1.0: every incident lasts at least 2 buckets.
  EXPECT_DOUBLE_EQ(pred.conditional_survival(3, 1, 1), 1.0);
  // P(D >= 11 | D >= 10) = 0: nothing outlives 10 buckets.
  EXPECT_DOUBLE_EQ(pred.conditional_survival(3, 10, 1), 0.0);
}

TEST(DurationPredictor, PerKeyHistoryPreferredWhenRich) {
  DurationPredictor pred;
  // Key 7 has plenty of long incidents; the global pool is short-lived.
  for (int i = 0; i < 20; ++i) pred.record_duration(7, 20);
  for (int i = 0; i < 500; ++i) pred.record_duration(8, 1);
  EXPECT_GT(pred.expected_remaining(7, 1), 10.0);
  // Key 9 has no history: falls back to the global pool (dominated by 1s).
  EXPECT_LT(pred.expected_remaining(9, 1), 3.0);
  EXPECT_EQ(pred.history_count(7), 20u);
  EXPECT_EQ(pred.history_count(9), 0u);
}

TEST(DurationPredictor, SparseKeyFallsBackToGlobal) {
  DurationPredictor pred;
  pred.record_duration(5, 48);  // one long incident, below kMinKeyHistory
  for (int i = 0; i < 100; ++i) pred.record_duration(6, 1);
  // Key 5's single observation must not dominate; global pool governs.
  EXPECT_LT(pred.expected_remaining(5, 1), 5.0);
}

TEST(DurationPredictor, InvalidInputsThrow) {
  DurationPredictor pred;
  EXPECT_THROW(pred.record_duration(1, 0), std::invalid_argument);
  EXPECT_THROW(DurationPredictor{0}, std::invalid_argument);
}

TEST(ClientVolumePredictor, MeanOfSameWindowAcrossDays) {
  ClientVolumePredictor pred{3};
  const int bod = 100;  // bucket-of-day index
  for (int day = 0; day < 3; ++day) {
    pred.observe(1, util::TimeBucket{day * util::kBucketsPerDay + bod},
                 100.0 + day * 10.0);
  }
  const double predicted =
      pred.predict(1, util::TimeBucket{3 * util::kBucketsPerDay + bod});
  EXPECT_DOUBLE_EQ(predicted, 110.0);  // mean of 100, 110, 120
}

TEST(ClientVolumePredictor, ExcludesCurrentDay) {
  ClientVolumePredictor pred{3};
  const int bod = 10;
  pred.observe(1, util::TimeBucket{bod}, 50.0);
  pred.observe(1, util::TimeBucket{util::kBucketsPerDay + bod}, 5000.0);
  // Predicting for day 1 must ignore day 1's own (incident-inflated) value.
  EXPECT_DOUBLE_EQ(
      pred.predict(1, util::TimeBucket{util::kBucketsPerDay + bod}), 50.0);
}

TEST(ClientVolumePredictor, DifferentWindowsIndependent) {
  ClientVolumePredictor pred{3};
  pred.observe(1, util::TimeBucket{10}, 100.0);
  // Asking about a different bucket-of-day finds nothing.
  EXPECT_DOUBLE_EQ(
      pred.predict(1, util::TimeBucket{util::kBucketsPerDay + 11}), 0.0);
}

TEST(ClientVolumePredictor, OldDaysAgeOut) {
  ClientVolumePredictor pred{3};
  const int bod = 7;
  pred.observe(1, util::TimeBucket{bod}, 100.0);  // day 0
  // Day 10: day 0 is outside the 3-day window.
  EXPECT_DOUBLE_EQ(
      pred.predict(1, util::TimeBucket{10 * util::kBucketsPerDay + bod}),
      0.0);
}

TEST(ClientVolumePredictor, RefeedsKeepMax) {
  ClientVolumePredictor pred{3};
  pred.observe(1, util::TimeBucket{10}, 100.0);
  pred.observe(1, util::TimeBucket{10}, 60.0);  // re-feed, smaller
  EXPECT_DOUBLE_EQ(
      pred.predict(1, util::TimeBucket{util::kBucketsPerDay + 10}), 100.0);
}

TEST(ClientVolumePredictor, EvictStaleKeepsRecent) {
  ClientVolumePredictor pred{3};
  const int bod = 3;
  pred.observe(1, util::TimeBucket{bod}, 10.0);                           // d0
  pred.observe(1, util::TimeBucket{9 * util::kBucketsPerDay + bod}, 20.0);  // d9
  pred.evict_stale(10);
  EXPECT_DOUBLE_EQ(
      pred.predict(1, util::TimeBucket{10 * util::kBucketsPerDay + bod}),
      20.0);
}

TEST(ClientVolumePredictor, InvalidWindowThrows) {
  EXPECT_THROW(ClientVolumePredictor{0}, std::invalid_argument);
}

TEST(ClientVolumePredictor, RestoreRejectsKeyCountBeyondTheBytesLeft) {
  // 6 bytes declaring 2^40 keys: before the count was bounded by the
  // section's size, restore reserved a 2^40-bucket map (std::bad_alloc).
  std::string payload;
  store::put_varint(payload, std::uint64_t{1} << 40);
  ASSERT_EQ(payload.size(), 6u);
  store::ByteReader reader{payload, 40, "section \"clients\""};
  ClientVolumePredictor pred{3};
  try {
    pred.restore(reader);
    FAIL() << "expected SnapshotError";
  } catch (const store::SnapshotError& e) {
    const std::string error = e.what();
    EXPECT_NE(error.find("section \"clients\""), std::string::npos) << error;
    EXPECT_NE(error.find("client key count"), std::string::npos) << error;
    EXPECT_NE(error.find("at offset 46"), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace blameit::core

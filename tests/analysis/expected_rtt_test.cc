#include "analysis/expected_rtt.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/stats.h"

namespace blameit::analysis {
namespace {

const auto kLoc = net::CloudLocationId{3};
const auto kKey = cloud_key(kLoc, net::DeviceClass::NonMobile);

/// Reference learner: per key, a plain list of ⟨day, seen, samples⟩
/// reservoirs with the same Algorithm-R slot rule, re-pooled and
/// re-medianed on every query — no memo, no blocks, no merges.
class Oracle {
 public:
  explicit Oracle(const ExpectedRttConfig& cfg)
      : window_(cfg.window_days),
        cap_(static_cast<std::size_t>(cfg.reservoir_per_day)) {}

  void observe(ExpectedRttKey key, int day, double rtt_ms) {
    auto& days = reservoirs_[key.packed];
    if (days.empty() || days.back().day != day) days.push_back({day, 0, {}});
    Reservoir& r = days.back();
    ++r.seen;
    if (r.samples.size() < cap_) {
      r.samples.push_back(rtt_ms);
      return;
    }
    const std::uint64_t slot =
        util::hash_combine(key.packed,
                           util::hash_combine(static_cast<std::uint64_t>(day),
                                              r.seen)) %
        r.seen;
    if (slot < cap_) r.samples[static_cast<std::size_t>(slot)] = rtt_ms;
  }

  void evict_stale(int day) {
    for (auto it = reservoirs_.begin(); it != reservoirs_.end();) {
      std::erase_if(it->second,
                    [&](const Reservoir& r) { return r.day < day - window_; });
      it = it->second.empty() ? reservoirs_.erase(it) : std::next(it);
    }
  }

  [[nodiscard]] std::optional<double> expected(ExpectedRttKey key,
                                               int day) const {
    std::vector<double> pool = window(key, day);
    if (pool.empty()) return std::nullopt;
    return util::median_inplace(pool);
  }
  [[nodiscard]] std::size_t history_size(ExpectedRttKey key, int day) const {
    return window(key, day).size();
  }
  [[nodiscard]] std::size_t tracked_keys() const { return reservoirs_.size(); }

 private:
  struct Reservoir {
    int day;
    std::uint64_t seen;
    std::vector<double> samples;
  };

  [[nodiscard]] std::vector<double> window(ExpectedRttKey key, int day) const {
    std::vector<double> pool;
    const auto it = reservoirs_.find(key.packed);
    if (it == reservoirs_.end()) return pool;
    for (const Reservoir& r : it->second) {
      if (r.day < day && r.day >= day - window_) {
        pool.insert(pool.end(), r.samples.begin(), r.samples.end());
      }
    }
    return pool;
  }

  int window_;
  std::size_t cap_;
  std::map<std::uint64_t, std::vector<Reservoir>> reservoirs_;
};

/// expected() and history_size() of every key in `keys` for query days
/// [0, last_day] equal the oracle's, bit for bit.
void expect_matches(const ExpectedRttLearner& learner, const Oracle& oracle,
                    const std::vector<ExpectedRttKey>& keys, int last_day) {
  EXPECT_EQ(learner.tracked_keys(), oracle.tracked_keys());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    for (int day = 0; day <= last_day; ++day) {
      ASSERT_EQ(learner.expected(keys[k], day), oracle.expected(keys[k], day))
          << "key " << k << " day " << day;
      ASSERT_EQ(learner.history_size(keys[k], day),
                oracle.history_size(keys[k], day))
          << "key " << k << " day " << day;
    }
  }
}

TEST(ExpectedRttKeys, DistinctNamespaces) {
  const auto ck = cloud_key(kLoc, net::DeviceClass::NonMobile);
  const auto mk =
      middle_key(kLoc, net::MiddleSegmentId{0}, net::DeviceClass::NonMobile);
  EXPECT_NE(ck, mk);
  EXPECT_NE(cloud_key(kLoc, net::DeviceClass::Mobile), ck);
  EXPECT_NE(middle_key(kLoc, net::MiddleSegmentId{1},
                       net::DeviceClass::NonMobile),
            mk);
  EXPECT_NE(middle_key(net::CloudLocationId{4}, net::MiddleSegmentId{0},
                       net::DeviceClass::NonMobile),
            mk);
}

TEST(ExpectedRttLearner, MedianOverWindow) {
  ExpectedRttLearner learner;
  for (int day = 0; day < 14; ++day) {
    for (int i = 0; i < 20; ++i) {
      learner.observe(kKey, day, 40.0 + day * 0.1);
    }
  }
  const auto expected = learner.expected(kKey, 14);
  ASSERT_TRUE(expected.has_value());
  EXPECT_NEAR(*expected, 40.65, 0.1);  // median across days 0..13
}

TEST(ExpectedRttLearner, NoHistoryGivesNullopt) {
  ExpectedRttLearner learner;
  EXPECT_FALSE(learner.expected(kKey, 5).has_value());
  learner.observe(kKey, 5, 40.0);
  // Day 5 itself is excluded when asking about day 5.
  EXPECT_FALSE(learner.expected(kKey, 5).has_value());
  EXPECT_TRUE(learner.expected(kKey, 6).has_value());
}

TEST(ExpectedRttLearner, CurrentDayExcluded) {
  // An ongoing incident must not teach the learner its own inflation.
  ExpectedRttLearner learner;
  for (int i = 0; i < 50; ++i) learner.observe(kKey, 0, 40.0);
  for (int i = 0; i < 50; ++i) learner.observe(kKey, 1, 400.0);  // incident
  const auto expected = learner.expected(kKey, 1);
  ASSERT_TRUE(expected.has_value());
  EXPECT_DOUBLE_EQ(*expected, 40.0);
}

TEST(ExpectedRttLearner, WindowSlidesForward) {
  ExpectedRttConfig cfg;
  cfg.window_days = 3;
  ExpectedRttLearner learner{cfg};
  for (int i = 0; i < 10; ++i) learner.observe(kKey, 0, 10.0);
  for (int i = 0; i < 10; ++i) learner.observe(kKey, 5, 90.0);
  // At day 6, only day 5 is inside the 3-day window.
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 6).value(), 90.0);
  // At day 2, only day 0 is inside.
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 2).value(), 10.0);
  // At day 9, nothing is inside.
  EXPECT_FALSE(learner.expected(kKey, 9).has_value());
}

TEST(ExpectedRttLearner, ReservoirBoundsMemory) {
  ExpectedRttConfig cfg;
  cfg.reservoir_per_day = 32;
  ExpectedRttLearner learner{cfg};
  for (int i = 0; i < 10000; ++i) learner.observe(kKey, 0, 40.0 + i % 7);
  EXPECT_EQ(learner.history_size(kKey, 1), 32u);
  const auto expected = learner.expected(kKey, 1);
  ASSERT_TRUE(expected.has_value());
  EXPECT_GT(*expected, 39.0);
  EXPECT_LT(*expected, 47.0);
}

TEST(ExpectedRttLearner, ReservoirKeepsRepresentativeMedian) {
  ExpectedRttConfig cfg;
  cfg.reservoir_per_day = 64;
  ExpectedRttLearner learner{cfg};
  // Stream with true median 50.
  for (int i = 0; i < 5000; ++i) {
    learner.observe(kKey, 0, static_cast<double>(i % 101));
  }
  EXPECT_NEAR(learner.expected(kKey, 1).value(), 50.0, 12.0);
}

TEST(ExpectedRttLearner, CacheInvalidatedAtDayRollover) {
  ExpectedRttLearner learner;
  for (int i = 0; i < 20; ++i) learner.observe(kKey, 0, 10.0);
  learner.evict_stale(1);  // freezes day 1's table
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 1).value(), 10.0);
  // Day 1's observations fall outside day 1's window, so its table holds...
  for (int i = 0; i < 1000; ++i) learner.observe(kKey, 1, 100.0);
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 1).value(), 10.0);
  // ...and day 2's table, frozen at rollover, includes them.
  learner.evict_stale(2);
  const auto expected = learner.expected(kKey, 2);
  ASSERT_TRUE(expected.has_value());
  EXPECT_GT(*expected, 50.0);  // pooled over both days, dominated by day 1
  // The day-1 view is still served (recomputed) correctly.
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 1).value(), 10.0);
}

TEST(ExpectedRttLearner, CacheInvalidatedByEvictStale) {
  ExpectedRttConfig cfg;
  cfg.window_days = 2;
  ExpectedRttLearner learner{cfg};
  learner.observe(kKey, 0, 10.0);
  learner.observe(kKey, 6, 20.0);
  // Day 2's table sees only day 0.
  learner.freeze_day(2);
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 2).value(), 10.0);
  // Evicting day 0 replaces that table, so day 2 is recomputed, not served
  // stale.
  learner.evict_stale(6);
  EXPECT_EQ(learner.frozen_day(), 6);
  EXPECT_FALSE(learner.expected(kKey, 2).has_value());
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 7).value(), 20.0);
}

TEST(ExpectedRttLearner, MemoizationDoesNotChangeResults) {
  ExpectedRttLearner learner;
  Oracle oracle{ExpectedRttConfig{}};
  util::Rng rng{11};
  for (int day = 0; day < 6; ++day) {
    // Each day's table is frozen before its observations: queries for
    // `day` read it, every other day recomputes.
    learner.evict_stale(day);
    oracle.evict_stale(day);
    expect_matches(learner, oracle, {kKey}, day);
    for (int i = 0; i < 400; ++i) {  // overflows the reservoir too
      const double rtt = rng.uniform(20.0, 90.0);
      learner.observe(kKey, day, rtt);
      oracle.observe(kKey, day, rtt);
    }
    expect_matches(learner, oracle, {kKey}, day + 1);
  }
}

TEST(ExpectedRttLearner, ObserveInsideCachedWindowInvalidates) {
  ExpectedRttLearner learner;
  Oracle oracle{ExpectedRttConfig{}};
  const auto observe = [&](int day, double rtt) {
    learner.observe(kKey, day, rtt);
    oracle.observe(kKey, day, rtt);
  };
  observe(0, 10.0);
  learner.freeze_day(3);
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 3).value(), 10.0);  // the table
  // Days 1-2 land inside the frozen day-3 window: serving the table would
  // still answer 10.
  observe(1, 50.0);
  observe(2, 90.0);
  EXPECT_NE(learner.frozen_day(), 3);
  EXPECT_EQ(learner.expected(kKey, 3), oracle.expected(kKey, 3));
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 3).value(), 50.0);
}

TEST(ExpectedRttLearner, EvictErasesEmptiedKeys) {
  ExpectedRttConfig cfg;
  cfg.window_days = 2;
  ExpectedRttLearner learner{cfg};
  // 64 churned keys (seen once, never again) + one live key.
  for (std::uint16_t loc = 0; loc < 64; ++loc) {
    learner.observe(cloud_key(net::CloudLocationId{loc},
                              net::DeviceClass::Mobile),
                    0, 40.0);
  }
  learner.observe(kKey, 0, 40.0);
  EXPECT_EQ(learner.tracked_keys(), 65u);
  learner.observe(kKey, 9, 41.0);
  learner.evict_stale(9);
  // Only the key with a live reservoir survives; a learner that keeps empty
  // histories around would still report 65 and grow without bound.
  EXPECT_EQ(learner.tracked_keys(), 1u);
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 10).value(), 41.0);
  learner.evict_stale(9 + cfg.window_days + 1);
  EXPECT_EQ(learner.tracked_keys(), 0u);
}

TEST(ExpectedRttLearner, EvictStaleFreesOldDays) {
  ExpectedRttConfig cfg;
  cfg.window_days = 2;
  ExpectedRttLearner learner{cfg};
  learner.observe(kKey, 0, 1.0);
  learner.observe(kKey, 1, 2.0);
  learner.observe(kKey, 5, 3.0);
  learner.evict_stale(5);
  EXPECT_EQ(learner.history_size(kKey, 2), 0u);  // day 0/1 evicted
  EXPECT_EQ(learner.history_size(kKey, 6), 1u);  // day 5 kept
}

TEST(ExpectedRttLearner, RejectsDisorderedAndInvalid) {
  ExpectedRttLearner learner;
  learner.observe(kKey, 5, 1.0);
  EXPECT_THROW(learner.observe(kKey, 4, 1.0), std::invalid_argument);
  EXPECT_THROW(learner.observe(kKey, 6, -1.0), std::invalid_argument);
  EXPECT_THROW(learner.observe(kKey, -1, 1.0), std::invalid_argument);
}

TEST(ExpectedRttLearner, KeysAreIndependent) {
  ExpectedRttLearner learner;
  const auto other = cloud_key(net::CloudLocationId{9},
                               net::DeviceClass::NonMobile);
  learner.observe(kKey, 0, 10.0);
  learner.observe(other, 0, 99.0);
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 1).value(), 10.0);
  EXPECT_DOUBLE_EQ(learner.expected(other, 1).value(), 99.0);
}

// Paper §4.3 worked example: historical RTTs uniform in [35,45] (median
// ~40); after a cloud fault the distribution moves to [40,70]. With τ=0.8,
// comparing against the *learned* 40 ms flags every quartet; comparing
// against the 50 ms region target would flag only ~1/3.
TEST(ExpectedRttLearner, WorkedExampleFromPaper) {
  ExpectedRttLearner learner;
  util::Rng rng{7};
  for (int day = 0; day < 14; ++day) {
    for (int i = 0; i < 100; ++i) {
      learner.observe(kKey, day, rng.uniform(35.0, 45.0));
    }
  }
  const double learned = learner.expected(kKey, 14).value();
  EXPECT_NEAR(learned, 40.0, 1.0);

  int bad_by_learned = 0;
  int bad_by_target = 0;
  const double target = 50.0;
  for (int i = 0; i < 3000; ++i) {
    const double rtt = rng.uniform(40.0, 70.0);
    bad_by_learned += rtt > learned;
    bad_by_target += rtt > target;
  }
  EXPECT_GT(bad_by_learned / 3000.0, 0.95);  // everything above 40
  EXPECT_NEAR(bad_by_target / 3000.0, 2.0 / 3.0, 0.05);
}

// --- Learner vs oracle over a churning, evicting feed ---------------------

ExpectedRttConfig small_config() {
  ExpectedRttConfig cfg;
  cfg.reservoir_per_day = 8;  // small cap so Algorithm R actually evicts
  cfg.window_days = 3;        // short window so evict_stale() really drops
  return cfg;
}

const std::vector<ExpectedRttKey> kFeedKeys = [] {
  std::vector<ExpectedRttKey> keys;
  for (std::uint32_t k = 0; k < 6; ++k) {
    keys.push_back(middle_key(net::CloudLocationId{7}, net::MiddleSegmentId{k},
                              net::DeviceClass::NonMobile));
  }
  return keys;
}();

/// Feeds learner and oracle the identical day-ordered stream: many keys,
/// sample counts past the reservoir cap (so slot arithmetic matters), a
/// silent day 7, and an eviction partway through. Checks every ⟨key, day⟩
/// answer before and after each day's observations, so memo hits and
/// recomputations are both compared.
void parity_feed(ExpectedRttLearner& learner, Oracle& oracle) {
  for (int day = 0; day < 20; ++day) {
    expect_matches(learner, oracle, kFeedKeys, day);
    if (day == 7) continue;  // a silent day
    for (std::size_t k = 0; k < kFeedKeys.size(); ++k) {
      const int samples = 3 + 5 * static_cast<int>(k);  // some overflow 8
      for (int s = 0; s < samples; ++s) {
        const double rtt = 30.0 + k * 7 + day * 0.25 + s * 0.125;
        learner.observe(kFeedKeys[k], day, rtt);
        oracle.observe(kFeedKeys[k], day, rtt);
      }
    }
    if (day == 12) {
      learner.evict_stale(day - 6);
      oracle.evict_stale(day - 6);
    }
    expect_matches(learner, oracle, kFeedKeys, day + 1);
  }
}

TEST(ExpectedRttOracle, MatchesOracleBitForBit) {
  ExpectedRttLearner learner{small_config()};
  Oracle oracle{small_config()};
  parity_feed(learner, oracle);
  expect_matches(learner, oracle, kFeedKeys, 21);
}

TEST(ExpectedRttOracle, EvictStaleMatchesOracleAfterChurn) {
  ExpectedRttLearner learner{small_config()};
  Oracle oracle{small_config()};
  const auto churned = cloud_key(net::CloudLocationId{1},
                                 net::DeviceClass::Mobile);
  const auto steady = cloud_key(net::CloudLocationId{2},
                                net::DeviceClass::Mobile);
  learner.observe(churned, 0, 11.0);
  oracle.observe(churned, 0, 11.0);
  for (int day = 0; day < 10; ++day) {
    learner.observe(steady, day, 22.0);
    oracle.observe(steady, day, 22.0);
  }
  learner.evict_stale(8);  // churned key's only reservoir expires
  oracle.evict_stale(8);
  EXPECT_EQ(learner.tracked_keys(), 1u);
  expect_matches(learner, oracle, {churned, steady}, 11);
}

TEST(ExpectedRttOracle, SaveRestoreContinuesLikeOracle) {
  ExpectedRttLearner learner{small_config()};
  Oracle oracle{small_config()};
  parity_feed(learner, oracle);

  store::SnapshotWriter writer;
  learner.save_state(writer);
  const auto reader =
      store::SnapshotReader::from_bytes(writer.serialize(), "<rt>");
  ExpectedRttLearner restored{small_config()};
  restored.restore_state(reader);
  expect_matches(restored, oracle, kFeedKeys, 21);

  // The restored memtable keeps accepting the current day, then the next.
  for (const int day : {19, 20}) {
    for (std::size_t k = 0; k < kFeedKeys.size(); ++k) {
      restored.observe(kFeedKeys[k], day, 60.0 + k);
      oracle.observe(kFeedKeys[k], day, 60.0 + k);
    }
  }
  expect_matches(restored, oracle, kFeedKeys, 22);
}

const auto kCold =
    middle_key(net::CloudLocationId{7}, net::MiddleSegmentId{99},
               net::DeviceClass::NonMobile);

/// A fresh learner restored from `learner`'s state has no table, so it
/// answers every day by recomputation.
std::unique_ptr<ExpectedRttLearner> recomputing_copy(
    const ExpectedRttLearner& learner) {
  store::SnapshotWriter writer;
  learner.save_state(writer);
  auto copy = std::make_unique<ExpectedRttLearner>(small_config());
  copy->restore_state(
      store::SnapshotReader::from_bytes(writer.serialize(), "<copy>"));
  return copy;
}

/// The frozen `day` answers every key from its table — memo_misses does not
/// move — with the oracle's window median, and with the transfer answers a
/// recomputing copy gives.
void expect_table_matches(const ExpectedRttLearner& learner,
                          const obs::Registry& registry, const Oracle& oracle,
                          int day) {
  ASSERT_EQ(learner.frozen_day(), day);
  const auto recomputed = recomputing_copy(learner);
  const auto misses = registry.snapshot().counter_value("learner.memo_misses");
  std::vector<ExpectedRttKey> keys = kFeedKeys;
  keys.push_back(kCold);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    EXPECT_EQ(learner.expected(keys[k], day), oracle.expected(keys[k], day))
        << "key " << k << " day " << day;
    const auto graded = learner.expected_with_provenance(keys[k], day);
    const auto want = recomputed->expected_with_provenance(keys[k], day);
    EXPECT_EQ(graded.value, want.value) << "key " << k << " day " << day;
    EXPECT_EQ(graded.provenance, want.provenance)
        << "key " << k << " day " << day;
    EXPECT_EQ(learner.recently_churned(keys[k], day),
              recomputed->recently_churned(keys[k], day))
        << "key " << k << " day " << day;
  }
  EXPECT_EQ(registry.snapshot().counter_value("learner.memo_misses"), misses);
}

TEST(ExpectedRttOracle, DayTableMatchesWindowMedian) {
  obs::Registry registry;
  ExpectedRttConfig cfg = small_config();
  cfg.registry = &registry;
  ExpectedRttLearner learner{cfg};
  Oracle oracle{small_config()};
  const auto feed = [&](int day, int first, int last) {
    for (std::size_t k = 0; k < kFeedKeys.size(); ++k) {
      for (int s = first; s < last; ++s) {
        const double rtt = 30.0 + k * 7 + day * 0.25 + s * 0.125;
        learner.observe(kFeedKeys[k], day, rtt);
        oracle.observe(kFeedKeys[k], day, rtt);
      }
    }
  };
  std::string day12;
  Oracle oracle12 = oracle;
  for (int day = 0; day < 20; ++day) {
    // Half the day's samples first, so the table is frozen with part of
    // the day already stored — which its window must leave out.
    if (day != 7) feed(day, 0, 6);
    learner.evict_stale(day);
    oracle.evict_stale(day);
    expect_table_matches(learner, registry, oracle, day);
    if (day % 4 == 1) {
      // A mid-day transfer onto a key with no history: served at once.
      ASSERT_TRUE(learner.transfer_baseline(kFeedKeys[day % 3], kCold, day));
      const auto graded = learner.expected_with_provenance(kCold, day);
      ASSERT_TRUE(graded.value.has_value());
      EXPECT_DOUBLE_EQ(*graded.value,
                       *oracle.expected(kFeedKeys[day % 3], day) * 1.1);
      EXPECT_EQ(graded.provenance, BaselineProvenance::kTransferred);
      EXPECT_TRUE(learner.recently_churned(kCold, day));
      expect_table_matches(learner, registry, oracle, day);
    }
    if (day != 7) feed(day, 6, 12);
    expect_table_matches(learner, registry, oracle, day);
    if (day == 12) {
      store::SnapshotWriter writer;
      learner.save_state(writer);
      day12 = writer.serialize();
      oracle12 = oracle;
    }
  }
  // Restoring day 12's state into the learner frozen at day 19 re-freezes
  // day 19 from that state: nothing is left in day 19's window.
  learner.restore_state(store::SnapshotReader::from_bytes(day12, "<day 12>"));
  expect_table_matches(learner, registry, oracle12, 19);
  learner.freeze_day(12);
  expect_table_matches(learner, registry, oracle12, 12);
}

/// A learner snapshot section by hand: payload format 2, `backend`, no
/// transfers, then one memtable row of 42 ms on day 4 in the reservoir
/// store's payload.
std::string learner_payload(std::uint64_t backend) {
  std::string out;
  store::put_varint(out, 2);  // learner payload format
  store::put_varint(out, backend);
  store::put_varint(out, 0);  // transfers
  store::put_varint(out, 1);  // reservoir store payload format
  store::put_svarint(out, 4);  // memtable day
  store::put_varint(out, 1);   // memtable rows
  store::put_varint(out, kKey.packed);
  store::put_varint(out, 1);  // seen
  store::put_varint(out, 1);  // samples
  store::put_f64(out, 42.0);
  store::put_varint(out, 0);  // frozen rows
  return out;
}

TEST(ExpectedRttLearner, SnapshotBackendByteMustBeColumnar) {
  const auto restore = [](std::uint64_t backend, ExpectedRttLearner& into) {
    store::SnapshotWriter writer;
    writer.section("learner") = learner_payload(backend);
    into.restore_state(
        store::SnapshotReader::from_bytes(writer.serialize(), "<old>"));
  };
  // Byte 1: columnar state saved by any earlier build still restores.
  ExpectedRttLearner learner;
  restore(1, learner);
  EXPECT_EQ(learner.expected(kKey, 5), 42.0);
  // Byte 0: state of the removed hash-map backend is refused by name.
  ExpectedRttLearner refused;
  try {
    restore(0, refused);
    FAIL() << "restored a hash-map learner payload";
  } catch (const store::SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"learner\""), std::string::npos) << what;
    EXPECT_NE(what.find("hash-map backend was removed"), std::string::npos)
        << what;
  }
}

// --- §13 churn-aware baseline transfer ---------------------------------

const auto kOldPath =
    middle_key(kLoc, net::MiddleSegmentId{10}, net::DeviceClass::NonMobile);
const auto kNewPath =
    middle_key(kLoc, net::MiddleSegmentId{11}, net::DeviceClass::NonMobile);

TEST(BaselineTransfer, SeedsColdKeyWithDiscount) {
  ExpectedRttLearner learner;
  for (int day = 0; day < 5; ++day) learner.observe(kOldPath, day, 40.0);
  ASSERT_TRUE(learner.transfer_baseline(kOldPath, kNewPath, 5));

  // Plain expected() is untouched — the seed lives in the side table.
  EXPECT_FALSE(learner.expected(kNewPath, 5).has_value());
  const auto graded = learner.expected_with_provenance(kNewPath, 5);
  ASSERT_TRUE(graded.value.has_value());
  EXPECT_DOUBLE_EQ(*graded.value, 40.0 * 1.1);  // kTransferDiscount
  EXPECT_EQ(graded.provenance, BaselineProvenance::kTransferred);
  EXPECT_TRUE(learner.recently_churned(kNewPath, 5));
  EXPECT_FALSE(learner.recently_churned(kOldPath, 5));
}

TEST(BaselineTransfer, SurvivesSourceEvictionThenExpires) {
  ExpectedRttConfig cfg;
  cfg.window_days = 2;
  ExpectedRttLearner learner{cfg};
  learner.observe(kOldPath, 0, 50.0);
  ASSERT_TRUE(learner.transfer_baseline(kOldPath, kNewPath, 1));

  // Evicting the source's history must not lose the eagerly captured value.
  learner.evict_stale(3);  // drops the day-0 reservoir, keeps the transfer
  EXPECT_FALSE(learner.expected_with_provenance(kOldPath, 4).value);
  const auto graded = learner.expected_with_provenance(kNewPath, 4);
  ASSERT_TRUE(graded.value.has_value());
  EXPECT_DOUBLE_EQ(*graded.value, 50.0 * kTransferDiscount);

  // Past the age limit the transfer stops being served, and evict_stale
  // drops the entry from the side table.
  EXPECT_FALSE(learner.expected_with_provenance(kNewPath, 5).value);
  EXPECT_FALSE(learner.recently_churned(kNewPath, 5));
  EXPECT_EQ(learner.transfer_count(), 1u);
  learner.evict_stale(5);
  EXPECT_EQ(learner.transfer_count(), 0u);
}

TEST(BaselineTransfer, DoesNotClobberFresherBaseline) {
  ExpectedRttLearner learner;
  for (int day = 0; day < 4; ++day) {
    learner.observe(kOldPath, day, 80.0);
    learner.observe(kNewPath, day, 30.0);
  }
  // The target has real window history: the transfer is recorded (it marks
  // the key recently churned) but the served value stays the fresh median.
  EXPECT_TRUE(learner.transfer_baseline(kOldPath, kNewPath, 4));
  const auto graded = learner.expected_with_provenance(kNewPath, 4);
  ASSERT_TRUE(graded.value.has_value());
  EXPECT_DOUBLE_EQ(*graded.value, 30.0);
  EXPECT_EQ(graded.provenance, BaselineProvenance::kFresh);
  EXPECT_TRUE(learner.recently_churned(kNewPath, 4));
}

TEST(BaselineTransfer, ReplayedEventCannotOverwriteFresherTransfer) {
  ExpectedRttLearner learner;
  learner.observe(kOldPath, 0, 40.0);
  const auto other =
      middle_key(kLoc, net::MiddleSegmentId{12}, net::DeviceClass::NonMobile);
  learner.observe(other, 0, 90.0);
  ASSERT_TRUE(learner.transfer_baseline(kOldPath, kNewPath, 3));
  // A late-delivered (older-day) churn event for the same target loses.
  EXPECT_FALSE(learner.transfer_baseline(other, kNewPath, 2));
  EXPECT_DOUBLE_EQ(*learner.expected_with_provenance(kNewPath, 3).value,
                   40.0 * 1.1);
}

TEST(BaselineTransfer, NoOpWithoutUsableSource) {
  // Churn for an untracked path (no learner history on either end, e.g. a
  // /24 the pipeline never saw traffic from): nothing to seed, no crash,
  // no side-table growth.
  ExpectedRttLearner learner;
  EXPECT_FALSE(learner.transfer_baseline(kOldPath, kNewPath, 3));
  EXPECT_FALSE(learner.transfer_baseline(kOldPath, kOldPath, 3));
  EXPECT_EQ(learner.transfer_count(), 0u);
  EXPECT_FALSE(learner.recently_churned(kNewPath, 3));
}

TEST(BaselineTransfer, ChainedTransferCompoundsDiscount) {
  ExpectedRttLearner learner;
  learner.observe(kOldPath, 0, 40.0);
  const auto third =
      middle_key(kLoc, net::MiddleSegmentId{13}, net::DeviceClass::NonMobile);
  ASSERT_TRUE(learner.transfer_baseline(kOldPath, kNewPath, 1));
  // The path churns again inside the age limit: the second hop captures the
  // first transfer's once-discounted value, and serving applies one more
  // discount — two compounds total for the two-hop chain.
  ASSERT_TRUE(learner.transfer_baseline(kNewPath, third, 2));
  EXPECT_DOUBLE_EQ(*learner.expected_with_provenance(third, 2).value,
                   40.0 * 1.1 * 1.1);
}

TEST(BaselineTransfer, SnapshotParityOfTransferredProvenance) {
  // Transferred provenance must survive snapshot/restore bit-identically.
  ExpectedRttLearner learner{small_config()};
  for (int day = 0; day < 3; ++day) {
    for (int i = 0; i < 4; ++i) learner.observe(kOldPath, day, 44.0);
  }
  ASSERT_TRUE(learner.transfer_baseline(kOldPath, kNewPath, 3));

  store::SnapshotWriter writer;
  learner.save_state(writer);
  const auto reader =
      store::SnapshotReader::from_bytes(writer.serialize(), "<rt>");
  ExpectedRttLearner restored{small_config()};
  restored.restore_state(reader);

  EXPECT_EQ(restored.transfer_count(), 1u);
  const auto before = learner.expected_with_provenance(kNewPath, 3);
  const auto after = restored.expected_with_provenance(kNewPath, 3);
  ASSERT_TRUE(after.value.has_value());
  EXPECT_EQ(*before.value, *after.value);
  EXPECT_EQ(after.provenance, BaselineProvenance::kTransferred);
  EXPECT_TRUE(restored.recently_churned(kNewPath, 3));
}

}  // namespace
}  // namespace blameit::analysis

#include "svc/verdict_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

namespace blameit::svc {
namespace {

core::BlameResult make_blame(std::uint32_t block, std::uint16_t location,
                             std::int64_t bucket, core::Blame blame,
                             std::uint32_t middle = 1,
                             std::uint32_t client_as = 100) {
  core::BlameResult result;
  result.quartet.key.block = net::Slash24{block};
  result.quartet.key.location = net::CloudLocationId{location};
  result.quartet.key.bucket = util::TimeBucket{bucket};
  result.quartet.sample_count = 20;
  result.quartet.mean_rtt_ms = 80.0;
  result.quartet.middle = net::MiddleSegmentId{middle};
  result.quartet.client_as = net::AsId{client_as};
  result.quartet.bad = true;
  result.blame = blame;
  if (blame == core::Blame::Cloud) result.faulty_as = net::AsId{1};
  if (blame == core::Blame::Client) result.faulty_as = net::AsId{client_as};
  return result;
}

core::StepReport make_report(std::int64_t bucket,
                             std::vector<core::BlameResult> blames) {
  core::StepReport report;
  report.now = util::TimeBucket{bucket}.start().plus_minutes(5);
  report.buckets_processed = 1;
  report.blames = std::move(blames);
  return report;
}

TEST(VerdictStoreTest, EmptyStoreAnswersEverything) {
  const VerdictStore store;
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_FALSE(
      store.lookup(net::Slash24{7}, net::CloudLocationId{1}).has_value());
  EXPECT_TRUE(store.lookup(net::Slash24{7}).empty());
  EXPECT_TRUE(store.incidents_since(util::MinuteTime{0}).empty());
  EXPECT_TRUE(store.recent_diagnoses().empty());
  EXPECT_EQ(store.health().epoch, 0u);
}

TEST(VerdictStoreTest, ConfidenceMappingFollowsTheHierarchy) {
  VerdictStore store;
  store.publish(make_report(
      10, {make_blame(1, 1, 10, core::Blame::Cloud),
           make_blame(2, 1, 10, core::Blame::Client),
           make_blame(3, 1, 10, core::Blame::Middle),
           make_blame(4, 1, 10, core::Blame::Ambiguous)}));
  EXPECT_EQ(store.epoch(), 1u);

  const auto cloud = store.lookup(net::Slash24{1}, net::CloudLocationId{1});
  ASSERT_TRUE(cloud.has_value());
  EXPECT_EQ(cloud->blame, core::Blame::Cloud);
  EXPECT_EQ(cloud->confidence, core::DiagnosisConfidence::High);
  ASSERT_TRUE(cloud->faulty_as.has_value());
  EXPECT_EQ(cloud->faulty_as->value, 1u);
  EXPECT_FALSE(cloud->from_active);

  const auto client = store.lookup(net::Slash24{2}, net::CloudLocationId{1});
  ASSERT_TRUE(client.has_value());
  EXPECT_EQ(client->confidence, core::DiagnosisConfidence::High);

  // Middle with no active diagnosis: AS unknown, Low confidence.
  const auto middle = store.lookup(net::Slash24{3}, net::CloudLocationId{1});
  ASSERT_TRUE(middle.has_value());
  EXPECT_EQ(middle->confidence, core::DiagnosisConfidence::Low);
  EXPECT_FALSE(middle->faulty_as.has_value());

  const auto ambiguous =
      store.lookup(net::Slash24{4}, net::CloudLocationId{1});
  ASSERT_TRUE(ambiguous.has_value());
  EXPECT_EQ(ambiguous->confidence, core::DiagnosisConfidence::Low);
}

TEST(VerdictStoreTest, ActiveDiagnosisUpgradesMiddleVerdicts) {
  VerdictStore store;
  auto report =
      make_report(10, {make_blame(3, 1, 10, core::Blame::Middle, 7)});
  core::ActiveDiagnosis diag;
  diag.location = net::CloudLocationId{1};
  diag.middle = net::MiddleSegmentId{7};
  diag.probe_reached = true;
  diag.have_baseline = true;
  diag.baseline_predates_issue = true;
  diag.culprit = net::AsId{4242};
  diag.confidence = core::DiagnosisConfidence::High;
  report.diagnoses.push_back(diag);
  store.publish(report);

  const auto v = store.lookup(net::Slash24{3}, net::CloudLocationId{1});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->blame, core::Blame::Middle);
  EXPECT_TRUE(v->from_active);
  EXPECT_TRUE(v->baseline_predates_issue);
  EXPECT_EQ(v->confidence, core::DiagnosisConfidence::High);
  ASSERT_TRUE(v->faulty_as.has_value());
  EXPECT_EQ(v->faulty_as->value, 4242u);

  // The diagnosis is also served on its own feed.
  const auto diagnoses = store.recent_diagnoses();
  ASSERT_EQ(diagnoses.size(), 1u);
  EXPECT_EQ(diagnoses[0].diagnosis.culprit->value, 4242u);

  // A diagnosis for a DIFFERENT path must not upgrade this verdict.
  VerdictStore other;
  auto mismatched =
      make_report(10, {make_blame(3, 1, 10, core::Blame::Middle, 7)});
  diag.middle = net::MiddleSegmentId{8};
  mismatched.diagnoses.push_back(diag);
  other.publish(mismatched);
  const auto unmatched =
      other.lookup(net::Slash24{3}, net::CloudLocationId{1});
  ASSERT_TRUE(unmatched.has_value());
  EXPECT_FALSE(unmatched->from_active);
  EXPECT_EQ(unmatched->confidence, core::DiagnosisConfidence::Low);
}

TEST(VerdictStoreTest, VerdictsAgeOutAfterRetention) {
  VerdictStore store{{.verdict_retention_buckets = 3}};
  store.publish(make_report(10, {make_blame(1, 1, 10, core::Blame::Cloud)}));
  ASSERT_TRUE(
      store.lookup(net::Slash24{1}, net::CloudLocationId{1}).has_value());

  // A later publish inside the window keeps the old verdict alive...
  store.publish(make_report(12, {make_blame(2, 1, 12, core::Blame::Cloud)}));
  EXPECT_TRUE(
      store.lookup(net::Slash24{1}, net::CloudLocationId{1}).has_value());

  // ...but once the newest bucket is past block 1's bucket + retention,
  // the stale verdict is gone.
  store.publish(make_report(14, {make_blame(2, 1, 14, core::Blame::Cloud)}));
  EXPECT_FALSE(
      store.lookup(net::Slash24{1}, net::CloudLocationId{1}).has_value());
  EXPECT_EQ(store.epoch(), 3u);
}

TEST(VerdictStoreTest, LookupByBlockAndPrefix) {
  VerdictStore store;
  // 10.0.0.0/24 is block 0x0A0000, 10.0.1.0/24 is 0x0A0001.
  const auto block_a = net::Slash24{0x0A0000};
  const auto block_b = net::Slash24{0x0A0001};
  store.publish(make_report(
      10, {make_blame(block_a.block, 2, 10, core::Blame::Cloud),
           make_blame(block_a.block, 1, 10, core::Blame::Middle),
           make_blame(block_b.block, 1, 10, core::Blame::Client)}));

  const auto per_block = store.lookup(block_a);
  ASSERT_EQ(per_block.size(), 2u);
  EXPECT_EQ(per_block[0].location.value, 1u);  // location-ordered
  EXPECT_EQ(per_block[1].location.value, 2u);

  const auto prefix = net::Prefix::parse("10.0.0.0/23");
  ASSERT_TRUE(prefix.has_value());
  const auto covered = store.lookup(*prefix);
  ASSERT_EQ(covered.size(), 3u);
  EXPECT_EQ(covered[0].block, block_a);  // block-then-location ordered
  EXPECT_EQ(covered[2].block, block_b);

  const auto elsewhere = net::Prefix::parse("192.168.0.0/16");
  ASSERT_TRUE(elsewhere.has_value());
  EXPECT_TRUE(store.lookup(*elsewhere).empty());
}

TEST(VerdictStoreTest, IncidentRunsExtendAndClose) {
  VerdictStore store;
  // Same middle issue across buckets 10 and 11 -> one open run.
  store.publish(
      make_report(10, {make_blame(3, 1, 10, core::Blame::Middle, 7)}));
  store.publish(
      make_report(11, {make_blame(3, 1, 11, core::Blame::Middle, 7)}));
  auto incidents = store.incidents_since(util::MinuteTime{0});
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].category, core::Blame::Middle);
  EXPECT_EQ(incidents[0].buckets, 2);
  EXPECT_TRUE(incidents[0].open);
  ASSERT_TRUE(incidents[0].middle.has_value());
  EXPECT_EQ(incidents[0].middle->value, 7u);

  // Bucket 12 blames something else: the middle run closes, a cloud run
  // opens.
  store.publish(
      make_report(12, {make_blame(9, 1, 12, core::Blame::Cloud)}));
  incidents = store.incidents_since(util::MinuteTime{0});
  ASSERT_EQ(incidents.size(), 2u);
  EXPECT_FALSE(incidents[0].open);  // first_seen order: middle run first
  EXPECT_EQ(incidents[0].buckets, 2);
  EXPECT_TRUE(incidents[1].open);
  EXPECT_EQ(incidents[1].category, core::Blame::Cloud);

  // `since` filters on last_seen.
  const auto recent =
      store.incidents_since(util::TimeBucket{12}.start());
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].category, core::Blame::Cloud);

  // Ambiguous/Insufficient never form incidents.
  VerdictStore quiet;
  quiet.publish(
      make_report(10, {make_blame(1, 1, 10, core::Blame::Ambiguous),
                       make_blame(2, 1, 10, core::Blame::Insufficient)}));
  EXPECT_TRUE(quiet.incidents_since(util::MinuteTime{0}).empty());
}

TEST(VerdictStoreTest, HealthTracksDegradedSteps) {
  VerdictStore store;
  store.publish(make_report(10, {}));
  auto report = make_report(11, {});
  report.degraded_passive_only = true;
  store.publish(report);

  auto health = store.health();
  EXPECT_EQ(health.epoch, 2u);
  EXPECT_EQ(health.steps, 2u);
  EXPECT_EQ(health.degraded_steps, 1u);
  EXPECT_TRUE(health.degraded);
  EXPECT_EQ(health.last_step, report.now);

  store.publish(make_report(12, {}));
  health = store.health();
  EXPECT_FALSE(health.degraded);
  EXPECT_EQ(health.degraded_steps, 1u);
}

TEST(VerdictStoreTest, RegistryInstrumentsCount) {
  obs::Registry registry;
  VerdictStore store{{.registry = &registry}};
  store.publish(make_report(10, {make_blame(1, 1, 10, core::Blame::Cloud)}));
  (void)store.lookup(net::Slash24{1}, net::CloudLocationId{1});
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("svc.store.publishes"), 1u);
  EXPECT_EQ(snap.counter_value("svc.store.lookups"), 1u);
  EXPECT_EQ(snap.gauge_value("svc.store.verdicts"), 1.0);
}

// The RCU contract: readers on many threads race one publisher and must
// always see internally-consistent snapshots. Run under TSan in CI.
TEST(VerdictStoreTest, ConcurrentReadersNeverBlockOrTear) {
  VerdictStore store;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> lookups{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto epoch = store.epoch();
        EXPECT_GE(epoch, last_epoch);
        last_epoch = epoch;
        const auto v = store.lookup(net::Slash24{1}, net::CloudLocationId{1});
        if (v) {
          // A verdict is immutable once read: block/location always match
          // the key it was indexed under.
          EXPECT_EQ(v->block.block, 1u);
          EXPECT_EQ(v->location.value, 1u);
          EXPECT_EQ(v->blame, core::Blame::Cloud);
        }
        (void)store.lookup(net::Slash24{1});
        (void)store.incidents_since(util::MinuteTime{0});
        (void)store.health();
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Don't start (or finish) publishing until the readers are actually
  // looping, so the 200 publishes genuinely race the lookups.
  while (lookups.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  const auto lookups_at_start = lookups.load(std::memory_order_relaxed);
  for (std::int64_t bucket = 10; bucket < 210; ++bucket) {
    store.publish(make_report(
        bucket, {make_blame(1, 1, bucket, core::Blame::Cloud),
                 make_blame(2, 1, bucket, core::Blame::Middle, 7)}));
  }
  while (lookups.load(std::memory_order_relaxed) <= lookups_at_start) {
    std::this_thread::yield();
  }
  stop = true;
  for (auto& r : readers) r.join();
  EXPECT_EQ(store.epoch(), 200u);
  EXPECT_GT(lookups.load(), 0u);
}

// --- Store vs a std::map oracle: identical answers, save/restore. ---

/// A publish sequence exercising every row-state transition: inserts,
/// same-key updates, an active upgrade, and aging past retention.
std::vector<core::StepReport> parity_reports() {
  auto upgraded =
      make_report(11, {make_blame(3, 1, 11, core::Blame::Middle, 7),
                       make_blame(1, 1, 11, core::Blame::Cloud)});
  core::ActiveDiagnosis diag;
  diag.location = net::CloudLocationId{1};
  diag.middle = net::MiddleSegmentId{7};
  diag.probe_reached = true;
  diag.have_baseline = true;
  diag.culprit = net::AsId{4242};
  diag.confidence = core::DiagnosisConfidence::High;
  upgraded.diagnoses.push_back(diag);
  return {
      make_report(10, {make_blame(1, 1, 10, core::Blame::Cloud),
                       make_blame(2, 1, 10, core::Blame::Client),
                       make_blame(3, 1, 10, core::Blame::Middle, 7),
                       make_blame(3, 2, 10, core::Blame::Middle, 7)}),
      upgraded,
      // Quiet steps age out everything but the bucket-16 rows later on.
      make_report(16, {make_blame(2, 1, 16, core::Blame::Client),
                       make_blame(9, 3, 16, core::Blame::Ambiguous)}),
  };
}

/// Reference for the verdict rows: a std::map keyed ⟨/24, location⟩ that
/// each publish upserts, then ages — rows with bucket <= newest − retention
/// drop. Confidence follows the store's documented mapping.
class MapOracle {
 public:
  explicit MapOracle(int retention) : retention_(retention) {}

  void publish(const core::StepReport& report) {
    for (const core::BlameResult& b : report.blames) {
      Verdict v{.block = b.quartet.key.block,
                .location = b.quartet.key.location,
                .middle = b.quartet.middle,
                .client_as = b.quartet.client_as,
                .blame = b.blame,
                .faulty_as = b.faulty_as,
                .grade = b.grade,
                .bucket = b.quartet.key.bucket,
                .mean_rtt_ms = b.quartet.mean_rtt_ms,
                .sample_count = b.quartet.sample_count};
      if (b.blame == core::Blame::Cloud || b.blame == core::Blame::Client) {
        v.confidence = core::DiagnosisConfidence::High;
      }
      for (const core::ActiveDiagnosis& d : report.diagnoses) {
        if (b.blame == core::Blame::Middle && d.location == v.location &&
            d.middle == v.middle) {
          v.confidence = d.confidence;
          v.from_active = true;
          v.baseline_predates_issue = d.baseline_predates_issue;
          if (d.culprit) v.faulty_as = d.culprit;
          if (d.grade == core::BaselineGrade::ProbedCold) v.grade = d.grade;
        }
      }
      rows_[{v.block, v.location}] = v;
      newest_ = std::max(newest_, v.bucket.index);
    }
    std::erase_if(rows_, [&](const auto& row) {
      return row.second.bucket.index <= newest_ - retention_;
    });
  }

  [[nodiscard]] std::optional<Verdict> lookup(
      net::Slash24 block, net::CloudLocationId location) const {
    const auto it = rows_.find({block, location});
    if (it == rows_.end()) return std::nullopt;
    return it->second;
  }
  /// Every row in ⟨/24, location⟩ order, restricted to `block` when given.
  [[nodiscard]] std::vector<Verdict> rows(
      std::optional<net::Slash24> block = std::nullopt) const {
    std::vector<Verdict> out;
    for (const auto& [key, v] : rows_) {
      if (!block || key.first == *block) out.push_back(v);
    }
    return out;
  }

 private:
  int retention_;
  std::int64_t newest_ = INT64_MIN;
  std::map<std::pair<net::Slash24, net::CloudLocationId>, Verdict> rows_;
};

void expect_matches(const VerdictStore& store, const MapOracle& oracle) {
  for (std::uint32_t block : {1u, 2u, 3u, 5u, 9u, 77u}) {
    for (std::uint16_t loc : {1, 2, 3}) {
      EXPECT_EQ(store.lookup(net::Slash24{block}, net::CloudLocationId{loc}),
                oracle.lookup(net::Slash24{block}, net::CloudLocationId{loc}))
          << "block " << block << " loc " << loc;
    }
    EXPECT_EQ(store.lookup(net::Slash24{block}),
              oracle.rows(net::Slash24{block}))
        << "block " << block;
  }
  // 0.0.0.0/16 covers blocks 0-255, every block the reports touch.
  EXPECT_EQ(store.lookup(*net::Prefix::parse("0.0.0.0/16")), oracle.rows());
}

TEST(VerdictStoreOracle, MatchesMapOracleIncludingAging) {
  VerdictStore store{{.verdict_retention_buckets = 4}};
  MapOracle oracle{4};
  for (const auto& report : parity_reports()) {
    store.publish(report);
    oracle.publish(report);
    expect_matches(store, oracle);
  }
  // Aging applied: bucket-10/11 rows are past 16 - 4.
  EXPECT_FALSE(
      store.lookup(net::Slash24{1}, net::CloudLocationId{1}).has_value());
  EXPECT_EQ(oracle.rows().size(), 2u);
  EXPECT_GT(store.verdict_state_bytes(), 0u);
}

TEST(VerdictStoreOracle, SaveRestoreContinuesLikeOracle) {
  VerdictStore original{{.verdict_retention_buckets = 8}};
  MapOracle oracle{8};
  for (const auto& report : parity_reports()) {
    original.publish(report);
    oracle.publish(report);
  }

  store::SnapshotWriter writer;
  original.save_state(writer);
  VerdictStore restored{{.verdict_retention_buckets = 8}};
  restored.restore_state(
      store::SnapshotReader::from_bytes(writer.serialize(), "<rt>"));
  expect_matches(restored, oracle);
  EXPECT_EQ(restored.epoch(), original.epoch());
  EXPECT_EQ(restored.health().steps, original.health().steps);
  EXPECT_EQ(restored.incidents_since(util::MinuteTime{0}).size(),
            original.incidents_since(util::MinuteTime{0}).size());
  EXPECT_EQ(restored.recent_diagnoses().size(),
            original.recent_diagnoses().size());

  // The restored store continues accepting publishes, aging included.
  const auto next =
      make_report(17, {make_blame(5, 1, 17, core::Blame::Cloud)});
  restored.publish(next);
  oracle.publish(next);
  expect_matches(restored, oracle);
}

}  // namespace
}  // namespace blameit::svc

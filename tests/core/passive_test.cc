#include "core/passive.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "sim/fault.h"
#include "sim/scenario.h"
#include "sim/telemetry.h"

namespace blameit::core {
namespace {

// Shared environment: a small topology plus helpers that run the full
// telemetry -> quartets -> Algorithm 1 chain for a bucket, with the learner
// warmed up on fault-free history.
class PassiveTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net::TopologyConfig cfg;
    cfg.locations_per_region = 2;
    cfg.eyeballs_per_region = 6;
    // Middle groups need comfortably more than min_group_quartets (5)
    // co-located /24s per ⟨location, BGP path⟩, drawn from several client
    // ASes, for Algorithm 1's fractions to behave as at production scale.
    cfg.blocks_per_eyeball = 12;
    topo_ = net::make_topology(cfg).release();
  }
  static void TearDownTestSuite() {
    delete topo_;
    topo_ = nullptr;
  }

  /// Generates the quartets of `bucket` under `faults`.
  static std::vector<analysis::Quartet> quartets_for(
      const sim::FaultInjector& faults, util::TimeBucket bucket) {
    const sim::TelemetryGenerator gen{topo_, &faults};
    analysis::QuartetBuilder builder{topo_, analysis::BadnessThresholds{}};
    gen.generate_aggregates(bucket,
                            [&](const analysis::QuartetKey& k, int n,
                                double mean) {
                              builder.add_aggregate(k, n, mean);
                            });
    return builder.take_bucket(bucket);
  }

  /// Warms a learner with `days` of fault-free history for every group.
  static void warm(analysis::ExpectedRttLearner& learner, int days) {
    const sim::FaultInjector no_faults;
    for (int day = 0; day < days; ++day) {
      // A few buckets per day keep the cost low while covering diurnal
      // variation.
      for (const int hour : {3, 9, 15, 21}) {
        const auto bucket = util::TimeBucket::of(
            util::MinuteTime::from_day_hour(day, hour));
        for (const auto& q : quartets_for(no_faults, bucket)) {
          learner.observe(
              analysis::cloud_key(q.key.location, q.key.device), day,
              q.mean_rtt_ms);
          learner.observe(analysis::middle_key(q.key.location, q.middle,
                                               q.key.device),
                          day, q.mean_rtt_ms);
        }
      }
    }
  }

  /// Majority blame for bad quartets matching a predicate.
  template <typename Pred>
  static std::map<Blame, int> blame_histogram(
      std::span<const BlameResult> results, Pred pred) {
    std::map<Blame, int> hist;
    for (const auto& r : results) {
      if (pred(r)) ++hist[r.blame];
    }
    return hist;
  }

  static const net::Topology* topo_;
};

const net::Topology* PassiveTest::topo_ = nullptr;

// The evaluation bucket: day 14 at noon (after learner warmup window).
util::TimeBucket eval_bucket() {
  return util::TimeBucket::of(util::MinuteTime::from_day_hour(14, 12));
}

// A transit AS that in-region primary routes actually cross, but that does
// not dominate any location (per-location path share <= 0.6): a transit
// carrying more than τ of a location's paths is passively indistinguishable
// from a cloud fault, which is not what this test exercises.
net::AsId most_used_transit(const net::Topology& topo, net::Region region) {
  std::map<std::uint32_t, std::map<std::uint32_t, int>> usage;
  std::map<std::uint32_t, int> loc_totals;
  for (const auto& block : topo.blocks()) {
    if (block.region != region) continue;
    const auto loc = topo.home_locations(block.block).front();
    const auto* route =
        topo.routing().route_for(loc, block.block, util::MinuteTime{0});
    ++loc_totals[loc.value];
    for (const auto as : route->middle_ases()) ++usage[as.value][loc.value];
  }
  std::uint32_t best = 0;
  int best_total = -1;
  for (const auto& [as, per_loc] : usage) {
    int total = 0;
    double max_share = 0.0;
    for (const auto& [loc, n] : per_loc) {
      total += n;
      max_share =
          std::max(max_share, static_cast<double>(n) / loc_totals[loc]);
    }
    if (max_share <= 0.6 && total > best_total) {
      best = as;
      best_total = total;
    }
  }
  if (best_total < 0) {
    for (const auto& [as, per_loc] : usage) {
      int total = 0;
      for (const auto& [loc, n] : per_loc) total += n;
      if (total > best_total) {
        best = as;
        best_total = total;
      }
    }
  }
  return net::AsId{best};
}

TEST_F(PassiveTest, NoFaultsFewBadQuartets) {
  analysis::ExpectedRttLearner learner;
  warm(learner, 14);
  const sim::FaultInjector no_faults;
  const auto quartets = quartets_for(no_faults, eval_bucket());
  const PassiveLocalizer localizer{topo_, &learner};
  const auto results = localizer.localize(quartets, 14);
  // Healthy network: only noise-driven badness; must be a tiny fraction.
  EXPECT_LT(results.size(), quartets.size() / 10);
}

TEST_F(PassiveTest, CloudFaultBlamedOnCloud) {
  analysis::ExpectedRttLearner learner;
  warm(learner, 14);
  const auto loc = topo_->locations_in(net::Region::Europe).front();
  sim::FaultInjector faults;
  faults.add(sim::Fault{.kind = sim::FaultKind::CloudLocation,
                        .cloud_location = loc,
                        .added_ms = 80.0,
                        .start = util::MinuteTime::from_days(14),
                        .duration_minutes = util::kMinutesPerDay});
  const auto quartets = quartets_for(faults, eval_bucket());
  const PassiveLocalizer localizer{topo_, &learner};
  const auto results = localizer.localize(quartets, 14);

  const auto hist = blame_histogram(results, [&](const BlameResult& r) {
    return r.quartet.key.location == loc;
  });
  int total = 0;
  for (const auto& [blame, n] : hist) total += n;
  ASSERT_GT(total, 10);
  EXPECT_GT(hist.at(Blame::Cloud), total * 9 / 10);
  // Cloud blames carry the cloud AS.
  for (const auto& r : results) {
    if (r.blame == Blame::Cloud) {
      ASSERT_TRUE(r.faulty_as.has_value());
      EXPECT_EQ(*r.faulty_as, topo_->cloud_as());
    }
  }
}

TEST_F(PassiveTest, MiddleFaultBlamedOnMiddle) {
  analysis::ExpectedRttLearner learner;
  warm(learner, 14);
  const auto region = net::Region::India;
  const auto victim = most_used_transit(*topo_, region);
  sim::FaultInjector faults;
  faults.add(sim::Fault{.kind = sim::FaultKind::MiddleAs,
                        .as = victim,
                        .added_ms = 130.0,
                        .start = util::MinuteTime::from_days(14),
                        .duration_minutes = util::kMinutesPerDay});
  const auto quartets = quartets_for(faults, eval_bucket());
  const PassiveLocalizer localizer{topo_, &learner};
  const auto results = localizer.localize(quartets, 14);

  // Bad quartets whose path crosses the victim must be blamed Middle.
  const auto hist = blame_histogram(results, [&](const BlameResult& r) {
    const auto& mids = topo_->interner().ases(r.quartet.middle);
    return std::find(mids.begin(), mids.end(), victim) != mids.end();
  });
  int total = 0;
  for (const auto& [blame, n] : hist) total += n;
  ASSERT_GT(total, 5);
  EXPECT_GT(hist.at(Blame::Middle), total * 3 / 4);
}

// Picks an eyeball that never dominates a ⟨location, BGP path⟩ group: its
// /24s must stay under ~55% of every middle group they appear in, mirroring
// the production-scale structural property (§4.1) that a client-AS fault
// cannot saturate a middle group (which serves many client ASes).
net::AsId shared_middle_eyeball(const net::Topology& topo, net::Region region) {
  struct Group {
    int total = 0;
    std::map<std::uint32_t, int> per_as;
  };
  std::map<std::pair<std::uint16_t, std::uint32_t>, Group> groups;
  for (const auto& block : topo.blocks()) {
    if (block.region != region) continue;
    // Every home location matters: secondary-location quartets also feed
    // Algorithm 1's middle groups.
    for (const auto loc : topo.home_locations(block.block)) {
      const auto* route =
          topo.routing().route_for(loc, block.block, util::MinuteTime{0});
      auto& group = groups[{loc.value, route->middle.value}];
      ++group.total;
      ++group.per_as[block.client_as.value];
    }
  }
  for (const auto candidate : topo.eyeballs_in(region)) {
    bool dominates = false;
    for (const auto& [key, group] : groups) {
      const auto it = group.per_as.find(candidate.value);
      if (it != group.per_as.end() &&
          it->second > 0.55 * group.total) {
        dominates = true;
        break;
      }
    }
    if (!dominates) return candidate;
  }
  return topo.eyeballs_in(region).front();
}

TEST_F(PassiveTest, ClientAsFaultBlamedOnClient) {
  analysis::ExpectedRttLearner learner;
  warm(learner, 14);
  const auto victim = shared_middle_eyeball(*topo_, net::Region::Europe);
  sim::FaultInjector faults;
  faults.add(sim::Fault{.kind = sim::FaultKind::ClientAs,
                        .as = victim,
                        .added_ms = 150.0,
                        .start = util::MinuteTime::from_days(14),
                        .duration_minutes = util::kMinutesPerDay});
  const auto quartets = quartets_for(faults, eval_bucket());
  const PassiveLocalizer localizer{topo_, &learner};
  const auto results = localizer.localize(quartets, 14);

  // Assert on non-mobile quartets: mobile volumes are sparse enough that
  // some of their groups fall under the min-quartet gate (the same data-
  // density limits behind the paper's "insufficient" fractions, Fig 9).
  const auto hist = blame_histogram(results, [&](const BlameResult& r) {
    return r.quartet.client_as == victim &&
           r.quartet.key.device == net::DeviceClass::NonMobile;
  });
  int total = 0;
  for (const auto& [blame, n] : hist) total += n;
  ASSERT_GT(total, 5);
  EXPECT_GT(hist.at(Blame::Client), total * 3 / 4);
  for (const auto& r : results) {
    if (r.blame == Blame::Client && r.quartet.client_as == victim) {
      ASSERT_TRUE(r.faulty_as.has_value());
      EXPECT_EQ(*r.faulty_as, victim);
    }
  }
}

TEST_F(PassiveTest, AustraliaOverloadNotBlamedOnSharedPaths) {
  // §6.3 case 3 / Insight-2: a cloud fault at one location must be blamed on
  // the cloud even though every BGP path into that location is "bad" — the
  // hierarchical order (cloud first) resolves the ambiguity.
  analysis::ExpectedRttLearner learner;
  warm(learner, 14);
  const auto locs = topo_->locations_in(net::Region::Australia);
  ASSERT_GE(locs.size(), 2u);
  sim::FaultInjector faults;
  // The paper's incident took the median 25 ms -> 82 ms; our synthetic
  // Australia has a higher healthy base, so the same story needs a larger
  // inflation to breach the (roomier) regional target.
  faults.add(sim::Fault{.kind = sim::FaultKind::CloudLocation,
                        .cloud_location = locs[0],
                        .added_ms = 80.0,
                        .start = util::MinuteTime::from_days(14),
                        .duration_minutes = util::kMinutesPerDay});
  const auto quartets = quartets_for(faults, eval_bucket());
  const PassiveLocalizer localizer{topo_, &learner};
  const auto results = localizer.localize(quartets, 14);
  int cloud = 0;
  int middle = 0;
  for (const auto& r : results) {
    if (r.quartet.key.location != locs[0]) continue;
    cloud += r.blame == Blame::Cloud;
    middle += r.blame == Blame::Middle;
  }
  ASSERT_GT(cloud + middle, 5);
  EXPECT_GT(cloud, middle * 5);
  // Clients of the same region connecting to the *other* location stay good,
  // so no blame lands there.
  for (const auto& r : results) {
    EXPECT_NE(r.quartet.key.location, locs[1]);
  }
}

TEST_F(PassiveTest, SingleBlockIssueBlamedOnClientNotMiddle) {
  analysis::ExpectedRttLearner learner;
  warm(learner, 14);
  // Use the most active block so its quartets comfortably clear the 10
  // RTT-sample floor at the evaluation bucket.
  const auto& block = *std::max_element(
      topo_->blocks().begin(), topo_->blocks().end(),
      [](const auto& a, const auto& b) {
        return a.activity_weight < b.activity_weight;
      });
  sim::FaultInjector faults;
  faults.add(sim::Fault{.kind = sim::FaultKind::ClientBlock,
                        .block = block.block,
                        .added_ms = 200.0,
                        .start = util::MinuteTime::from_days(14),
                        .duration_minutes = util::kMinutesPerDay});
  const auto quartets = quartets_for(faults, eval_bucket());
  const PassiveLocalizer localizer{topo_, &learner};
  const auto results = localizer.localize(quartets, 14);
  int client = 0;
  int other = 0;
  for (const auto& r : results) {
    if (r.quartet.key.block != block.block) continue;
    client += r.blame == Blame::Client;
    other += r.blame != Blame::Client;
  }
  ASSERT_GT(client + other, 0);
  EXPECT_GE(client, other);
}

TEST_F(PassiveTest, InsufficientWhenGroupTooThin) {
  analysis::ExpectedRttLearner learner;
  // Hand-build a bucket with a single bad quartet at a location: the cloud
  // group has 1 quartet <= 5 → insufficient.
  analysis::Quartet q;
  q.key = analysis::QuartetKey{.block = topo_->blocks().front().block,
                               .location = topo_->locations().front().id,
                               .device = net::DeviceClass::NonMobile,
                               .bucket = util::TimeBucket{100}};
  q.sample_count = 20;
  q.mean_rtt_ms = 500.0;
  q.middle = topo_->routing()
                 .route_for(q.key.location, q.key.block, util::MinuteTime{0})
                 ->middle;
  q.client_as = topo_->blocks().front().client_as;
  q.region = topo_->blocks().front().region;
  q.bad = true;
  const PassiveLocalizer localizer{topo_, &learner};
  const auto results = localizer.localize(std::vector<analysis::Quartet>{q},
                                          0);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].blame, Blame::Insufficient);
}

TEST_F(PassiveTest, AmbiguousWhenGoodElsewhere) {
  analysis::ExpectedRttLearner learner;
  warm(learner, 14);
  // Synthetic bucket: one block bad at location A but good at location B,
  // with enough healthy co-located quartets that neither the cloud nor the
  // middle group crosses τ.
  const sim::FaultInjector no_faults;
  auto quartets = quartets_for(no_faults, eval_bucket());
  ASSERT_FALSE(quartets.empty());
  // Find a block with quartets at two locations in this bucket.
  std::map<std::uint32_t, std::vector<std::size_t>> by_block;
  for (std::size_t i = 0; i < quartets.size(); ++i) {
    if (quartets[i].key.device == net::DeviceClass::NonMobile) {
      by_block[quartets[i].key.block.block].push_back(i);
    }
  }
  std::size_t victim_idx = quartets.size();
  for (const auto& [block, indices] : by_block) {
    if (indices.size() >= 2 &&
        quartets[indices[0]].key.location !=
            quartets[indices[1]].key.location) {
      victim_idx = indices[0];
      break;
    }
  }
  ASSERT_LT(victim_idx, quartets.size()) << "need a dual-homed bucket";
  quartets[victim_idx].mean_rtt_ms += 300.0;  // only this quartet goes bad
  quartets[victim_idx].bad = true;

  const PassiveLocalizer localizer{topo_, &learner};
  const auto results = localizer.localize(quartets, 14);
  bool found = false;
  for (const auto& r : results) {
    if (r.quartet.key == quartets[victim_idx].key) {
      EXPECT_EQ(r.blame, Blame::Ambiguous);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(PassiveTest, ParallelLocalizeBitIdenticalAcrossThreadCounts) {
  analysis::ExpectedRttLearner learner;
  warm(learner, 14);

  // A bucket with every decision path live: a middle fault in India, a
  // cloud fault in Europe, plus a hand-injected ambiguous quartet on a
  // dual-homed block in an unaffected region.
  sim::FaultInjector faults;
  faults.add(sim::Fault{.kind = sim::FaultKind::MiddleAs,
                        .as = most_used_transit(*topo_, net::Region::India),
                        .added_ms = 130.0,
                        .start = util::MinuteTime::from_days(14),
                        .duration_minutes = util::kMinutesPerDay});
  faults.add(sim::Fault{.kind = sim::FaultKind::CloudLocation,
                        .cloud_location =
                            topo_->locations_in(net::Region::Europe).front(),
                        .added_ms = 80.0,
                        .start = util::MinuteTime::from_days(14),
                        .duration_minutes = util::kMinutesPerDay});
  auto quartets = quartets_for(faults, eval_bucket());

  // Inject the ambiguity on a dual-homed block: bad at one location, good
  // at the other.
  std::map<std::uint32_t, std::vector<std::size_t>> by_block;
  for (std::size_t i = 0; i < quartets.size(); ++i) {
    if (quartets[i].key.device == net::DeviceClass::NonMobile &&
        quartets[i].region == net::Region::UnitedStates && !quartets[i].bad) {
      by_block[quartets[i].key.block.block].push_back(i);
    }
  }
  std::size_t victim = quartets.size();
  for (const auto& [block, indices] : by_block) {
    for (std::size_t a = 0; a < indices.size() && victim == quartets.size();
         ++a) {
      for (std::size_t b = a + 1; b < indices.size(); ++b) {
        if (quartets[indices[a]].key.location !=
            quartets[indices[b]].key.location) {
          victim = indices[a];
          break;
        }
      }
    }
    if (victim != quartets.size()) break;
  }
  ASSERT_LT(victim, quartets.size()) << "need a dual-homed block";
  quartets[victim].mean_rtt_ms += 300.0;  // bad here, still good elsewhere
  quartets[victim].bad = true;

  // Reference: no table frozen yet, so every median is recomputed.
  const PassiveLocalizer localizer{topo_, &learner, BlameItConfig{}};
  ASSERT_NE(learner.frozen_day(), 14);
  const auto reference = localizer.localize(quartets, 14);

  // Sanity: multiple decision paths fired, including the ambiguity rule.
  std::map<Blame, int> hist;
  for (const auto& r : reference) ++hist[r.blame];
  EXPECT_GT(hist[Blame::Middle], 0);
  EXPECT_GT(hist[Blame::Cloud], 0);
  EXPECT_GT(hist[Blame::Ambiguous], 0);
  bool victim_ambiguous = false;
  for (const auto& r : reference) {
    if (r.quartet.key == quartets[victim].key) {
      victim_ambiguous = r.blame == Blame::Ambiguous;
    }
  }
  EXPECT_TRUE(victim_ambiguous);

  // From day 14's frozen table: alone, then while another thread learns
  // the bucket's own quartets into day 14 — the serial and the overlapped
  // step of the pipeline. Exact equality: same results in the same order,
  // bit-identical means.
  learner.freeze_day(14);
  EXPECT_EQ(localizer.localize(quartets, 14), reference);
  std::thread learning{[&] {
    for (const auto& q : quartets) {
      learner.observe(analysis::cloud_key(q.key.location, q.key.device), 14,
                      q.mean_rtt_ms);
      learner.observe(
          analysis::middle_key(q.key.location, q.middle, q.key.device), 14,
          q.mean_rtt_ms);
    }
  }};
  const auto beside_learning = localizer.localize(quartets, 14);
  learning.join();
  EXPECT_EQ(beside_learning, reference);
}

TEST_F(PassiveTest, ParallelLocalizeHandlesEmptyAndTinyInput) {
  analysis::ExpectedRttLearner learner;
  const PassiveLocalizer localizer{topo_, &learner};
  EXPECT_TRUE(localizer.localize({}, 0).empty());

  // One bad quartet alone -> Insufficient.
  analysis::Quartet q;
  q.key = analysis::QuartetKey{.block = topo_->blocks().front().block,
                               .location = topo_->locations().front().id,
                               .device = net::DeviceClass::NonMobile,
                               .bucket = util::TimeBucket{100}};
  q.sample_count = 20;
  q.mean_rtt_ms = 500.0;
  q.middle = topo_->routing()
                 .route_for(q.key.location, q.key.block, util::MinuteTime{0})
                 ->middle;
  q.client_as = topo_->blocks().front().client_as;
  q.region = topo_->blocks().front().region;
  q.bad = true;
  const auto results =
      localizer.localize(std::vector<analysis::Quartet>{q}, 0);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].blame, Blame::Insufficient);
}

TEST_F(PassiveTest, ComparisonRttFallsBackToThreshold) {
  analysis::ExpectedRttLearner learner;  // empty
  const PassiveLocalizer localizer{topo_, &learner};
  const auto key = analysis::cloud_key(topo_->locations().front().id,
                                       net::DeviceClass::NonMobile);
  const double cmp = localizer.comparison_rtt(
      key, 0, net::Region::Europe, net::DeviceClass::NonMobile);
  EXPECT_DOUBLE_EQ(
      cmp, analysis::BadnessThresholds{}.threshold(
               net::Region::Europe, net::DeviceClass::NonMobile));
}

TEST_F(PassiveTest, LearnedExpectedRttCatchesSubThresholdShift) {
  // §4.3 worked example at system level: a +15 ms cloud shift that keeps
  // many RTTs below the 50 ms badness threshold is still caught because the
  // group fraction compares against the learned ~40 ms median.
  analysis::ExpectedRttLearner learner;
  const auto loc = net::CloudLocationId{77};
  const auto key = analysis::cloud_key(loc, net::DeviceClass::NonMobile);
  util::Rng rng{5};
  for (int day = 0; day < 14; ++day) {
    for (int i = 0; i < 50; ++i) {
      learner.observe(key, day, rng.uniform(35.0, 45.0));
    }
  }
  const PassiveLocalizer localizer{topo_, &learner};
  const double cmp = localizer.comparison_rtt(
      key, 14, net::Region::UnitedStates, net::DeviceClass::NonMobile);
  EXPECT_NEAR(cmp, 40.0, 1.5);
  // Post-fault distribution [40, 70]: fraction above cmp clears τ=0.8.
  int above = 0;
  for (int i = 0; i < 1000; ++i) above += rng.uniform(40.0, 70.0) > cmp;
  EXPECT_GT(above, 950);
}

TEST_F(PassiveTest, RegistryNeverAffectsOutputAndCountsBlames) {
  analysis::ExpectedRttLearner learner;
  warm(learner, 14);
  sim::FaultInjector faults;
  faults.add(sim::Fault{.kind = sim::FaultKind::MiddleAs,
                        .as = most_used_transit(*topo_, net::Region::India),
                        .added_ms = 130.0,
                        .start = util::MinuteTime::from_days(14),
                        .duration_minutes = util::kMinutesPerDay});
  const auto quartets = quartets_for(faults, eval_bucket());

  BlameItConfig cfg;
  const PassiveLocalizer plain{topo_, &learner, cfg};
  const auto reference = plain.localize(quartets, 14);
  ASSERT_FALSE(reference.empty());

  // A live registry must leave the blame output bit-identical: metrics
  // observe, they never participate.
  obs::Registry registry;
  const PassiveLocalizer instrumented{topo_, &learner, cfg, &registry};
  EXPECT_EQ(instrumented.localize(quartets, 14), reference);

  const auto snap = registry.snapshot();
  for (const auto blame : kAllBlames) {
    std::uint64_t expected = 0;
    for (const auto& r : reference) expected += r.blame == blame;
    EXPECT_EQ(snap.counter_value(std::string{"passive.blame."} +
                                 std::string{to_string(blame)}),
              expected)
        << to_string(blame);
  }
  const auto* span = snap.histogram("passive.localize_ms");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, 1u);
}

TEST_F(PassiveTest, ReSteeredBlocksNeedUnshieldedCloudCorroboration) {
  // §13 re-steer rule: an anycast steer moves a set of /24s to a different
  // serving location, and their RTT jumps purely because the new location
  // is farther — no cloud fault anywhere. Churn-blind, those quartets
  // saturate the destination's cloud group and Algorithm 1 slanders the
  // Cloud; with the steer shield, Cloud blame needs corroboration from the
  // location's un-steered quartets.
  analysis::ExpectedRttLearner learner;
  warm(learner, 14);
  const sim::FaultInjector no_faults;
  auto quartets = quartets_for(no_faults, eval_bucket());
  const auto loc = topo_->locations_in(net::Region::Europe).front();

  std::vector<std::size_t> at_loc;
  for (std::size_t i = 0; i < quartets.size(); ++i) {
    if (quartets[i].key.location == loc &&
        quartets[i].key.device == net::DeviceClass::NonMobile) {
      at_loc.push_back(i);
    }
  }
  // Keep an un-steered healthy minority big enough to clear the min-quartet
  // gate on its own, while the steered majority still pushes the full-group
  // fraction past τ.
  constexpr std::size_t kKeepHealthy = 6;
  ASSERT_GT(at_loc.size(), kKeepHealthy + 30);
  SteerShield shield;
  for (std::size_t j = 0; j + kKeepHealthy < at_loc.size(); ++j) {
    auto& q = quartets[at_loc[j]];
    q.mean_rtt_ms += 120.0;  // destination-edge shift of the longer path
    q.bad = true;
    shield.insert(steer_shield_key(q.key.location, q.key.block));
  }

  const PassiveLocalizer localizer{topo_, &learner};

  // Churn-blind baseline: the steered quartets dominate the cloud group and
  // get blamed Cloud — the misattribution this rule exists to stop.
  const auto blind = localizer.localize(quartets, 14);
  int blind_cloud = 0;
  int blind_total = 0;
  for (const auto& r : blind) {
    if (r.quartet.key.location != loc ||
        r.quartet.key.device != net::DeviceClass::NonMobile) {
      continue;
    }
    ++blind_total;
    blind_cloud += r.blame == Blame::Cloud;
  }
  ASSERT_GT(blind_total, 10);
  EXPECT_GT(blind_cloud, blind_total * 9 / 10);

  // Shielded: the cloud check judges only the un-steered evidence (healthy),
  // so not one steered quartet may be blamed Cloud.
  const auto shielded = localizer.localize(quartets, 14, &shield);
  int shielded_cloud = 0;
  int shielded_total = 0;
  for (const auto& r : shielded) {
    if (r.quartet.key.location != loc) continue;
    ++shielded_total;
    shielded_cloud += r.blame == Blame::Cloud;
  }
  ASSERT_GT(shielded_total, 10);
  EXPECT_EQ(shielded_cloud, 0);

  // Corroboration restores Cloud blame: when the un-steered quartets go bad
  // too (a real destination-side fault), the shield must not mask it.
  for (std::size_t j = at_loc.size() - kKeepHealthy; j < at_loc.size(); ++j) {
    auto& q = quartets[at_loc[j]];
    q.mean_rtt_ms += 120.0;
    q.bad = true;
  }
  const auto corroborated = localizer.localize(quartets, 14, &shield);
  int corroborated_cloud = 0;
  for (const auto& r : corroborated) {
    corroborated_cloud +=
        r.quartet.key.location == loc && r.blame == Blame::Cloud;
  }
  EXPECT_GT(corroborated_cloud, blind_total * 9 / 10);
}

TEST_F(PassiveTest, InvalidConfigRejected) {
  analysis::ExpectedRttLearner learner;
  BlameItConfig bad;
  bad.tau = 0.0;
  EXPECT_THROW((PassiveLocalizer{topo_, &learner, bad}),
               std::invalid_argument);
  bad = {};
  bad.min_group_quartets = 0;
  EXPECT_THROW((PassiveLocalizer{topo_, &learner, bad}),
               std::invalid_argument);
  EXPECT_THROW((PassiveLocalizer{nullptr, &learner}), std::invalid_argument);
  EXPECT_THROW((PassiveLocalizer{topo_, nullptr}), std::invalid_argument);
}

// ---- Oracle: the map-and-set formulation of Algorithm 1 -------------------

// Reference Algorithm 1 with the semantics the dense pass-1 tables must keep:
// a std::map entry per cloud/middle group whose comparison RTT is fixed by
// the group's first quartet in input order, a std::map<block,
// std::set<location>> of good locations for the ambiguity rule, and the same
// branch order. Node-based maps and sets, so it cannot share a bug with
// the flat tables.
std::vector<BlameResult> oracle_localize(
    const net::Topology& topo, const analysis::ExpectedRttLearner& learner,
    const BlameItConfig& cfg, std::span<const analysis::Quartet> quartets,
    int day, const SteerShield* shield = nullptr) {
  struct Group {
    int quartets = 0;
    int bad = 0;
    int unshielded = 0;
    int unshielded_bad = 0;
    double value = 0.0;
    bool transferred = false;
    bool churned = false;
  };
  // ⟨is middle, location, path (0 for cloud groups), device⟩.
  using GroupId = std::tuple<bool, std::uint16_t, std::uint32_t, int>;
  std::map<GroupId, Group> groups;
  std::map<std::uint32_t, std::set<std::uint16_t>> good_locations;
  const analysis::BadnessThresholds thresholds;
  const bool shield_on = shield && !shield->empty();

  const auto group = [&](const GroupId& id, analysis::ExpectedRttKey key,
                         const analysis::Quartet& q) -> Group& {
    const auto [it, fresh] = groups.try_emplace(id);
    Group& g = it->second;
    if (!fresh) return g;
    const double fallback = thresholds.threshold(q.region, q.key.device);
    if (cfg.churn_baseline_transfer) {
      const auto graded = learner.expected_with_provenance(key, day);
      g.value = graded.value.value_or(fallback);
      g.transferred =
          graded.provenance == analysis::BaselineProvenance::kTransferred;
      g.churned = learner.recently_churned(key, day);
    } else {
      g.value = learner.expected(key, day).value_or(fallback);
    }
    return g;
  };
  const auto cloud = [&](const analysis::Quartet& q) -> Group& {
    return group({false, q.key.location.value, 0,
                  static_cast<int>(q.key.device)},
                 analysis::cloud_key(q.key.location, q.key.device), q);
  };
  const auto middle = [&](const analysis::Quartet& q) -> Group& {
    return group({true, q.key.location.value, q.middle.value,
                  static_cast<int>(q.key.device)},
                 analysis::middle_key(q.key.location, q.middle, q.key.device),
                 q);
  };
  const auto fraction = [](int bad, int n) {
    return n == 0 ? 0.0 : static_cast<double>(bad) / n;
  };

  for (const auto& q : quartets) {
    Group& cg = cloud(q);
    const bool cloud_bad = q.mean_rtt_ms > cg.value;
    ++cg.quartets;
    cg.bad += cloud_bad;
    if (shield_on &&
        !shield->contains(steer_shield_key(q.key.location, q.key.block))) {
      ++cg.unshielded;
      cg.unshielded_bad += cloud_bad;
    }
    Group& mg = middle(q);
    ++mg.quartets;
    mg.bad += q.mean_rtt_ms > mg.value;
    if (!q.bad) good_locations[q.key.block.block].insert(q.key.location.value);
  }

  std::vector<BlameResult> out;
  for (const auto& q : quartets) {
    const Group& cg = cloud(q);
    const Group& mg = middle(q);
    const auto grade =
        mg.transferred ? BaselineGrade::Transferred : BaselineGrade::Fresh;
    if (!q.bad) {
      if (cfg.churn_baseline_transfer && mg.churned &&
          mg.quartets > cfg.min_group_quartets &&
          fraction(mg.bad, mg.quartets) >= cfg.tau &&
          q.mean_rtt_ms > mg.value) {
        out.push_back({.quartet = q, .blame = Blame::Middle, .grade = grade});
      }
      continue;
    }
    BlameResult r{.quartet = q};
    const bool cloud_blamed =
        shield_on ? cg.unshielded > cfg.min_group_quartets &&
                        fraction(cg.unshielded_bad, cg.unshielded) >= cfg.tau
                  : fraction(cg.bad, cg.quartets) >= cfg.tau;
    if (cg.quartets <= cfg.min_group_quartets) {
      r.blame = Blame::Insufficient;
    } else if (cloud_blamed) {
      r.blame = Blame::Cloud;
      r.faulty_as = topo.cloud_as();
    } else if (mg.quartets <= cfg.min_group_quartets) {
      r.blame = Blame::Insufficient;
    } else if (fraction(mg.bad, mg.quartets) >= cfg.tau) {
      r.blame = Blame::Middle;
      r.grade = grade;
    } else {
      const auto it = good_locations.find(q.key.block.block);
      if (it != good_locations.end() &&
          (it->second.size() > 1 ||
           !it->second.contains(q.key.location.value))) {
        r.blame = Blame::Ambiguous;
      } else {
        r.blame = Blame::Client;
        r.faulty_as = q.client_as;
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// Runs localize() and requires it to equal the oracle exactly; returns the
/// oracle's results.
std::vector<BlameResult> expect_matches_oracle(
    const net::Topology& topo, const analysis::ExpectedRttLearner& learner,
    const BlameItConfig& cfg, const std::vector<analysis::Quartet>& quartets,
    int day, const SteerShield* shield = nullptr) {
  const auto expected =
      oracle_localize(topo, learner, cfg, quartets, day, shield);
  const PassiveLocalizer localizer{&topo, &learner, cfg};
  EXPECT_EQ(localizer.localize(quartets, day, shield), expected);
  return expected;
}

/// Index of a non-mobile good quartet in `region` whose /24 also has a good
/// quartet at another location.
std::size_t dual_homed_good(const std::vector<analysis::Quartet>& quartets,
                            net::Region region) {
  std::map<std::uint32_t, std::vector<std::size_t>> by_block;
  for (std::size_t i = 0; i < quartets.size(); ++i) {
    const auto& q = quartets[i];
    if (q.key.device == net::DeviceClass::NonMobile && q.region == region &&
        !q.bad) {
      by_block[q.key.block.block].push_back(i);
    }
  }
  for (const auto& [block, indices] : by_block) {
    for (std::size_t a = 0; a < indices.size(); ++a) {
      for (std::size_t b = a + 1; b < indices.size(); ++b) {
        if (quartets[indices[a]].key.location !=
            quartets[indices[b]].key.location) {
          return indices[a];
        }
      }
    }
  }
  return quartets.size();
}

TEST_F(PassiveTest, OracleMatchesWithEveryBlameBranchLive) {
  analysis::ExpectedRttLearner learner;
  warm(learner, 14);
  sim::FaultInjector faults;
  const auto day14 = util::MinuteTime::from_days(14);
  faults.add(sim::Fault{.kind = sim::FaultKind::CloudLocation,
                        .cloud_location =
                            topo_->locations_in(net::Region::Europe).front(),
                        .added_ms = 80.0,
                        .start = day14,
                        .duration_minutes = util::kMinutesPerDay});
  faults.add(sim::Fault{.kind = sim::FaultKind::MiddleAs,
                        .as = most_used_transit(*topo_, net::Region::India),
                        .added_ms = 130.0,
                        .start = day14,
                        .duration_minutes = util::kMinutesPerDay});
  faults.add(sim::Fault{.kind = sim::FaultKind::ClientAs,
                        .as = shared_middle_eyeball(*topo_,
                                                    net::Region::Brazil),
                        .added_ms = 150.0,
                        .start = day14,
                        .duration_minutes = util::kMinutesPerDay});
  auto quartets = quartets_for(faults, eval_bucket());

  // Ambiguous: bad at one location, still good at another.
  const auto ambiguous = dual_homed_good(quartets, net::Region::UnitedStates);
  ASSERT_LT(ambiguous, quartets.size());
  quartets[ambiguous].mean_rtt_ms += 300.0;
  quartets[ambiguous].bad = true;
  // Insufficient: a bad quartet alone on a path no other quartet uses.
  analysis::Quartet lone = quartets[ambiguous];
  lone.key.block = net::Slash24{lone.key.block.block + 1};
  lone.middle = net::MiddleSegmentId{0xFFFFFF};
  quartets.push_back(lone);

  const auto results =
      expect_matches_oracle(*topo_, learner, {}, quartets, 14);
  std::map<Blame, int> hist;
  for (const auto& r : results) ++hist[r.blame];
  for (const auto blame : kAllBlames) {
    EXPECT_GT(hist[blame], 0) << to_string(blame);
  }
}

TEST_F(PassiveTest, OracleMatchesWithChurnBaselineTransfer) {
  // Soft badness and the transferred grade: one churned middle group shifts
  // above its expectation while staying under the badness threshold, and
  // one group on a brand-new path inherits a transferred baseline and goes
  // hard bad.
  analysis::ExpectedRttLearner learner;
  warm(learner, 14);
  const sim::FaultInjector no_faults;
  auto quartets = quartets_for(no_faults, eval_bucket());
  BlameItConfig cfg;
  cfg.churn_baseline_transfer = true;
  const PassiveLocalizer probe{topo_, &learner, cfg};
  const analysis::BadnessThresholds thresholds;

  // The largest non-mobile middle group at each of two locations.
  const auto largest_group = [&](net::CloudLocationId loc) {
    std::map<std::uint32_t, int> sizes;
    for (const auto& q : quartets) {
      if (q.key.location == loc &&
          q.key.device == net::DeviceClass::NonMobile) {
        ++sizes[q.middle.value];
      }
    }
    return std::max_element(sizes.begin(), sizes.end(),
                            [](const auto& a, const auto& b) {
                              return a.second < b.second;
                            })
        ->first;
  };
  const auto soft_loc = topo_->locations_in(net::Region::UnitedStates).front();
  const net::MiddleSegmentId soft_path{largest_group(soft_loc)};
  const auto soft_key = analysis::middle_key(soft_loc, soft_path,
                                             net::DeviceClass::NonMobile);
  // Any other key with history will do as the source: the entry marks the
  // target recently churned, and its own fresh median still wins.
  ASSERT_TRUE(learner.transfer_baseline(
      analysis::cloud_key(soft_loc, net::DeviceClass::NonMobile), soft_key,
      14));
  int soft_members = 0;
  for (auto& q : quartets) {
    if (q.key.location != soft_loc || q.middle != soft_path ||
        q.key.device != net::DeviceClass::NonMobile || q.bad) {
      continue;
    }
    const double expected =
        probe.comparison_rtt(soft_key, 14, q.region, q.key.device);
    const double limit = thresholds.threshold(q.region, q.key.device);
    if (expected < limit) {
      q.mean_rtt_ms = (expected + limit) / 2;  // above expectation, not bad
      ++soft_members;
    }
  }
  ASSERT_GT(soft_members, cfg.min_group_quartets);

  const auto moved_loc = topo_->locations_in(net::Region::Europe).front();
  const net::MiddleSegmentId old_path{largest_group(moved_loc)};
  const net::MiddleSegmentId new_path{0xFFFFFE};
  ASSERT_TRUE(learner.transfer_baseline(
      analysis::middle_key(moved_loc, old_path, net::DeviceClass::NonMobile),
      analysis::middle_key(moved_loc, new_path, net::DeviceClass::NonMobile),
      14));
  for (auto& q : quartets) {
    if (q.key.location == moved_loc && q.middle == old_path &&
        q.key.device == net::DeviceClass::NonMobile) {
      q.middle = new_path;
      q.mean_rtt_ms += 200.0;
      q.bad = true;
    }
  }

  const auto results = expect_matches_oracle(*topo_, learner, cfg, quartets,
                                             14);
  int soft_bad = 0;
  int transferred = 0;
  for (const auto& r : results) {
    soft_bad += !r.quartet.bad && r.blame == Blame::Middle;
    transferred += r.grade == BaselineGrade::Transferred;
  }
  EXPECT_GT(soft_bad, 0);
  EXPECT_GT(transferred, 0);
}

TEST_F(PassiveTest, OracleMatchesUnderSteerShield) {
  analysis::ExpectedRttLearner learner;
  warm(learner, 14);
  const sim::FaultInjector no_faults;
  auto quartets = quartets_for(no_faults, eval_bucket());
  const auto loc = topo_->locations_in(net::Region::Europe).front();
  SteerShield shield;
  int steered = 0;
  for (auto& q : quartets) {
    // Steer two of every three of the location's /24s: the cloud group's
    // full fraction crosses τ while its un-shielded remainder stays healthy.
    if (q.key.location != loc || q.key.block.block % 3 == 0) continue;
    q.mean_rtt_ms += 120.0;
    q.bad = true;
    shield.insert(steer_shield_key(q.key.location, q.key.block));
    ++steered;
  }
  ASSERT_GT(steered, 10);
  const auto results = expect_matches_oracle(*topo_, learner, {}, quartets,
                                             14, &shield);
  // The shield must change some verdict, or the un-shielded counters went
  // unexercised.
  EXPECT_NE(results, oracle_localize(*topo_, learner, {}, quartets, 14));
}

// ---- Ambiguity-rule edges on hand-built buckets ----------------------------

/// A quartet of /24 `block` at location `loc`, judged against the empty
/// learner's fallback (the region threshold): good at half of it, bad at
/// three times it.
analysis::Quartet hand_quartet(std::uint32_t block, std::uint16_t loc,
                               net::DeviceClass device, bool bad) {
  analysis::Quartet q;
  q.key = analysis::QuartetKey{.block = net::Slash24{block},
                               .location = net::CloudLocationId{loc},
                               .device = device,
                               .bucket = util::TimeBucket{100}};
  q.sample_count = 20;
  q.region = net::Region::Europe;
  const double limit =
      analysis::BadnessThresholds{}.threshold(q.region, device);
  q.mean_rtt_ms = bad ? 3 * limit : limit / 2;
  q.middle = net::MiddleSegmentId{7};
  q.client_as = net::AsId{64500};
  q.bad = bad;
  return q;
}

/// Healthy quartets from 8 other /24s per location and device class: every
/// cloud and middle group clears min_group_quartets and stays far below τ,
/// so a bad /24 among them reaches the ambiguity rule.
std::vector<analysis::Quartet> healthy_backdrop(
    std::initializer_list<std::uint16_t> locations) {
  std::vector<analysis::Quartet> out;
  for (const auto loc : locations) {
    for (const auto device : net::kAllDeviceClasses) {
      for (std::uint32_t i = 0; i < 8; ++i) {
        out.push_back(hand_quartet(1000 + 100 * loc + i, loc, device, false));
      }
    }
  }
  return out;
}

constexpr std::uint32_t kVictim = 42;

/// Blames of the victim /24's bad quartets, checked against the oracle for
/// the bucket as given and for the bucket followed by its own reverse. The second feed repeats every quartet (as
/// BM_Algorithm1Scaled does) and ends on the location it started with: a
/// repeated ⟨/24, location⟩ is one location, never a second one, and a
/// revisit must not erase what was seen in between.
std::set<Blame> victim_blames(const net::Topology& topo,
                              const std::vector<analysis::Quartet>& quartets) {
  const analysis::ExpectedRttLearner learner;
  auto twice = quartets;
  twice.insert(twice.end(), quartets.rbegin(), quartets.rend());
  std::set<Blame> blames;
  const auto collect = [&](const std::vector<analysis::Quartet>& feed) {
    for (const auto& r : expect_matches_oracle(topo, learner, {}, feed, 0)) {
      if (r.quartet.key.block.block == kVictim) blames.insert(r.blame);
    }
  };
  collect(quartets);
  collect(twice);
  return blames;
}

TEST_F(PassiveTest, GoodOnlyAtOwnLocationUnderOtherDeviceIsClient) {
  auto quartets = healthy_backdrop({1, 2});
  quartets.push_back(hand_quartet(kVictim, 1, net::DeviceClass::Mobile, false));
  quartets.push_back(
      hand_quartet(kVictim, 1, net::DeviceClass::NonMobile, true));
  EXPECT_EQ(victim_blames(*topo_, quartets), std::set<Blame>{Blame::Client});
}

TEST_F(PassiveTest, GoodAtTwoOtherLocationsOnDifferentShardsIsAmbiguous) {
  // Good at locations 1 and 2, bad at 0: the /24's summary starts at
  // location 1 and must still record that 2 was good too.
  auto quartets = healthy_backdrop({0, 1, 2});
  quartets.push_back(
      hand_quartet(kVictim, 1, net::DeviceClass::NonMobile, false));
  quartets.push_back(
      hand_quartet(kVictim, 2, net::DeviceClass::NonMobile, false));
  quartets.push_back(
      hand_quartet(kVictim, 0, net::DeviceClass::NonMobile, true));
  EXPECT_EQ(victim_blames(*topo_, quartets),
            std::set<Blame>{Blame::Ambiguous});
}

TEST_F(PassiveTest, GoodAtOwnLocationAndAnotherOnItsShardIsAmbiguous) {
  // Good at its own location 1 (under the other device) and at 5: only the
  // summary's "multi" bit says it was good somewhere besides location 1.
  auto quartets = healthy_backdrop({0, 1, 5});
  quartets.push_back(hand_quartet(kVictim, 1, net::DeviceClass::Mobile, false));
  quartets.push_back(
      hand_quartet(kVictim, 5, net::DeviceClass::NonMobile, false));
  quartets.push_back(
      hand_quartet(kVictim, 1, net::DeviceClass::NonMobile, true));
  EXPECT_EQ(victim_blames(*topo_, quartets),
            std::set<Blame>{Blame::Ambiguous});
}

}  // namespace
}  // namespace blameit::core

// End-to-end integration: telemetry -> quartets -> Algorithm 1 -> incident
// tracking -> prioritized active probing, against injected ground truth.
#include "core/pipeline.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/quartet.h"
#include "churning_day.h"
#include "one_cpu.h"
#include "sim/telemetry.h"
#include "store/snapshot.h"

namespace blameit::core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net::TopologyConfig cfg;
    cfg.locations_per_region = 1;
    cfg.eyeballs_per_region = 3;
    // Enough /24s that middle groups clear the min-quartets gate.
    cfg.blocks_per_eyeball = 16;
    topo_ = net::make_topology(cfg).release();
  }
  static void TearDownTestSuite() {
    delete topo_;
    topo_ = nullptr;
  }

  /// Builds the full stack around a fault schedule. Returns the pipeline;
  /// keeps the support objects alive via members.
  void build(BlameItConfig cfg = shortened_config(),
             obs::Registry* registry = nullptr) {
    generator_ = std::make_unique<sim::TelemetryGenerator>(topo_, &faults_);
    model_ = std::make_unique<sim::RttModel>(topo_, &faults_);
    engine_ = std::make_unique<sim::TracerouteEngine>(topo_, model_.get());
    auto source = [this](util::TimeBucket bucket) {
      std::this_thread::sleep_for(source_delay_);
      analysis::QuartetBuilder builder{topo_, analysis::BadnessThresholds{}};
      generator_->generate_aggregates(
          bucket, [&](const analysis::QuartetKey& k, int n, double mean) {
            builder.add_aggregate(k, n, mean);
          });
      return builder.take_bucket(bucket);
    };
    pipeline_ = std::make_unique<BlameItPipeline>(topo_, engine_.get(),
                                                  source, cfg, registry);
  }

  static BlameItConfig shortened_config() {
    BlameItConfig cfg;
    cfg.expected_rtt_window_days = 2;  // cheap warmup for tests
    return cfg;
  }

  /// Learner warmup over `days` full days (every bucket, so the pipeline's
  /// internal cursor lands exactly on the first evaluation bucket).
  void warm(int days) {
    for (int day = 0; day < days; ++day) {
      for (int b = 0; b < util::kBucketsPerDay; ++b) {
        pipeline_->warmup_bucket(
            util::TimeBucket{day * util::kBucketsPerDay + b});
      }
    }
  }

  static net::Topology* topo_;
  /// Added to every quartet-source call (stage-timing tests).
  std::chrono::milliseconds source_delay_{0};
  sim::FaultInjector faults_;
  std::unique_ptr<sim::TelemetryGenerator> generator_;
  std::unique_ptr<sim::RttModel> model_;
  std::unique_ptr<sim::TracerouteEngine> engine_;
  std::unique_ptr<BlameItPipeline> pipeline_;
};

net::Topology* PipelineTest::topo_ = nullptr;

// A transit AS that in-region primary routes actually cross, but that does
// NOT dominate any location (share <= 0.6): a fault on a transit carrying
// >τ of a location's paths is indistinguishable from a cloud fault in the
// passive view, which is not what these tests exercise.
net::AsId used_transit(const net::Topology& topo, net::Region region) {
  std::map<std::uint32_t, std::map<std::uint32_t, int>> usage;  // as -> loc -> n
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
      max_share = std::max(
          max_share, static_cast<double>(n) / loc_totals[loc]);
    }
    if (max_share <= 0.6 && total > best_total) {
      best = as;
      best_total = total;
    }
  }
  if (best_total < 0) {  // fallback: most used overall
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

TEST_F(PipelineTest, QuietNetworkProducesFewBlames) {
  build();
  warm(2);
  std::size_t blames = 0;
  std::size_t quartets_seen = 0;
  for (int minute = 15; minute <= 120; minute += 15) {
    const auto report =
        pipeline_->step(util::MinuteTime::from_days(2).plus_minutes(minute));
    blames += report.blames.size();
    quartets_seen += 100;  // rough lower bound per step, for scale
    EXPECT_EQ(report.buckets_processed, 3);
    EXPECT_TRUE(report.diagnoses.empty());
  }
  EXPECT_LT(blames, quartets_seen / 5);
}

/// What one leg (serial or overlapped) decided over the churning day: every
/// blame and diagnosis, the snapshot bytes, and how often each churn
/// mechanism fired.
struct ChurnRun {
  std::vector<BlameResult> blames;
  std::string diagnoses;
  ChurningDaySnapshots snapshots;
  std::uint64_t transfers = 0;
  std::uint64_t shields = 0;
  std::uint64_t backfills = 0;
  bool operator==(const ChurnRun&) const = default;
};

ChurnRun churn_run(bool serial) {
  ChurnRun out;
  std::ostringstream diagnoses;
  diagnoses << std::hexfloat;
  obs::Registry registry;
  out.snapshots = run_churning_day(
      serial, sim::ChaosConfig{}, &registry,
      [&](const StepReport& report) {
        out.blames.insert(out.blames.end(), report.blames.begin(),
                          report.blames.end());
        for (const auto& d : report.diagnoses) {
          diagnoses << d.location.value << ',' << d.middle.value << ','
                    << (d.culprit ? d.culprit->value : 0) << ','
                    << d.culprit_increase_ms << ','
                    << static_cast<int>(d.confidence) << ','
                    << static_cast<int>(d.grade) << ',' << d.probes_spent
                    << '\n';
        }
      });
  out.diagnoses = diagnoses.str();
  const auto snap = registry.snapshot();
  out.transfers = snap.counter_value("pipeline.churn_transfers").value_or(0);
  out.shields = snap.counter_value("pipeline.steer_shields").value_or(0);
  out.backfills = snap.counter_value("pipeline.cold_backfills").value_or(0);
  return out;
}

TEST_F(PipelineTest, ParallelAnalyticsMatchesSerialEndToEnd) {
  // Learning beside localize must reproduce the serial step (pipelines
  // built on a one-CPU thread) exactly: the same blames in the same order
  // with bit-identical means, the same diagnoses and the same snapshot
  // bytes.
  const ChurnRun serial = churn_run(/*serial=*/true);
  EXPECT_FALSE(serial.blames.empty());
  EXPECT_FALSE(serial.diagnoses.empty());
  EXPECT_FALSE(serial.snapshots.restart.empty());
  EXPECT_GT(serial.transfers, 0u);
  EXPECT_GT(serial.shields, 0u);
  EXPECT_GT(serial.backfills, 0u);
  const ChurnRun overlapped = churn_run(/*serial=*/false);
  EXPECT_EQ(overlapped.blames, serial.blames);
  EXPECT_EQ(overlapped.diagnoses, serial.diagnoses);
  EXPECT_EQ(overlapped.snapshots, serial.snapshots);
  EXPECT_EQ(overlapped, serial);
}

TEST_F(PipelineTest, MiddleFaultDiagnosedEndToEnd) {
  const auto fault_start =
      util::MinuteTime::from_day_hour(2, 10);
  const auto victim = used_transit(*topo_, net::Region::Europe);
  faults_.add(sim::Fault{.kind = sim::FaultKind::MiddleAs,
                         .as = victim,
                         .added_ms = 120.0,
                         .start = fault_start,
                         .duration_minutes = 120});
  build();
  warm(2);

  // Walk day 2 from 09:00 to 11:00 in 15-minute steps.
  bool saw_middle_blame = false;
  bool diagnosed_victim = false;
  int on_demand = 0;
  for (int minute = 9 * 60 + 15; minute <= 11 * 60; minute += 15) {
    const auto report =
        pipeline_->step(util::MinuteTime::from_days(2).plus_minutes(minute));
    on_demand += report.on_demand_probes;
    if (report.count(Blame::Middle) > 0) saw_middle_blame = true;
    for (const auto& diag : report.diagnoses) {
      if (diag.culprit && *diag.culprit == victim) diagnosed_victim = true;
    }
  }
  EXPECT_TRUE(saw_middle_blame);
  EXPECT_TRUE(diagnosed_victim);
  // Budgeted probing: a couple of issues, not a probe storm.
  EXPECT_LT(on_demand, 8 * pipeline_->config().probe_budget_per_run);
}

TEST_F(PipelineTest, CloudFaultBlamedWithoutProbes) {
  const auto loc = topo_->locations_in(net::Region::Brazil).front();
  faults_.add(sim::Fault{.kind = sim::FaultKind::CloudLocation,
                         .cloud_location = loc,
                         .added_ms = 90.0,
                         .start = util::MinuteTime::from_day_hour(2, 10),
                         .duration_minutes = 60});
  build();
  warm(2);
  int cloud_blames = 0;
  int middle_probes = 0;
  for (int minute = 10 * 60 + 15; minute <= 11 * 60; minute += 15) {
    const auto report =
        pipeline_->step(util::MinuteTime::from_days(2).plus_minutes(minute));
    cloud_blames += report.count(Blame::Cloud);
    for (const auto& diag : report.diagnoses) {
      if (diag.location == loc) ++middle_probes;
    }
  }
  EXPECT_GT(cloud_blames, 10);
  // Cloud faults are already localized passively; no on-demand traceroutes
  // should chase them.
  EXPECT_EQ(middle_probes, 0);
}

TEST_F(PipelineTest, IncidentRunsFeedDurationPredictor) {
  const auto victim = used_transit(*topo_, net::Region::India);
  faults_.add(sim::Fault{.kind = sim::FaultKind::MiddleAs,
                         .as = victim,
                         .added_ms = 150.0,
                         .start = util::MinuteTime::from_day_hour(2, 10),
                         .duration_minutes = 30});
  build();
  warm(2);
  // Step through the fault and one hour past it so the run closes.
  for (int minute = 10 * 60 + 15; minute <= 12 * 60; minute += 15) {
    (void)pipeline_->step(
        util::MinuteTime::from_days(2).plus_minutes(minute));
  }
  // Some ⟨location, path⟩ key must have recorded a closed incident.
  const auto& durations = pipeline_->durations();
  bool any_history = false;
  for (const auto& loc : topo_->locations()) {
    for (const auto& block : topo_->blocks()) {
      const auto* route = topo_->routing().route_for(
          loc.id, block.block, util::MinuteTime::from_day_hour(2, 10));
      if (!route) continue;
      if (durations.history_count(
              middle_issue_key(loc.id, route->middle)) > 0) {
        any_history = true;
      }
    }
  }
  EXPECT_TRUE(any_history);
}

TEST_F(PipelineTest, BackgroundProbesAccrue) {
  build();
  warm(2);
  int background = 0;
  for (int minute = 15; minute <= 6 * 60; minute += 15) {
    background += pipeline_
                      ->step(util::MinuteTime::from_days(2).plus_minutes(
                          minute))
                      .background_probes;
  }
  // Six hours at 2 probes/day/path: roughly half the paths probed once.
  EXPECT_GT(background, 0);
  EXPECT_GT(pipeline_->baselines().size(), 0u);
}

TEST_F(PipelineTest, StepReportCountsMatchBlames) {
  build();
  warm(2);
  const auto report =
      pipeline_->step(util::MinuteTime::from_days(2).plus_minutes(15));
  int total = 0;
  for (const auto blame : kAllBlames) total += report.count(blame);
  EXPECT_EQ(static_cast<std::size_t>(total), report.blames.size());
}

TEST_F(PipelineTest, RegistryObservesEveryStage) {
  obs::Registry registry;
  build(shortened_config(), &registry);
  warm(2);
  const auto report =
      pipeline_->step(util::MinuteTime::from_days(2).plus_minutes(15));
  EXPECT_EQ(report.buckets_processed, 3);  // 15-min step = 3 buckets
  EXPECT_GT(report.stages.total_ms, 0.0);
  EXPECT_GT(report.stages.localize_ms, 0.0);
  // total covers the whole call, so it bounds the sum of the inner stages.
  EXPECT_GE(report.stages.total_ms,
            report.stages.source_ms + report.stages.learn_ms +
                report.stages.localize_ms + report.stages.active_ms +
                report.stages.background_ms);

  const auto snap = registry.snapshot();
  // The active span only runs when the step surfaced blames, so it may be
  // empty on a healthy day; the others record on every step.
  EXPECT_NE(snap.histogram("step.active_ms"), nullptr);
  for (const auto* name : {"step.source_ms", "step.learn_ms",
                           "step.localize_ms", "step.background_ms",
                           "step.total_ms"}) {
    const auto* hist = snap.histogram(name);
    ASSERT_NE(hist, nullptr) << name;
    EXPECT_GT(hist->count, 0u) << name;
  }
  EXPECT_EQ(snap.counter_value("pipeline.buckets_processed"),
            static_cast<std::uint64_t>(report.buckets_processed));
  EXPECT_EQ(snap.gauge_value("pipeline.probe_budget_per_run"),
            static_cast<double>(pipeline_->config().probe_budget_per_run));
  // Learner + background instruments are wired through the same registry.
  EXPECT_GT(snap.counter_value("learner.memo_hits").value_or(0) +
                snap.counter_value("learner.memo_misses").value_or(0),
            0u);
  EXPECT_EQ(snap.counter_value("background.probes").value_or(0),
            static_cast<std::uint64_t>(report.background_probes));
}

// The quartet source (in production, the ingest drain) is a stage of its
// own: a source that sleeps 2 ms per bucket shows up in source_ms and the
// step.source_ms histogram, and the five stages never sum past the total.
TEST_F(PipelineTest, SourceTimeIsAttributedToItsOwnStage) {
  obs::Registry registry;
  build(shortened_config(), &registry);
  source_delay_ = std::chrono::milliseconds{2};
  const auto start = util::MinuteTime::from_days(2);
  // Start the step cursor at `start`, so the step covers three buckets.
  pipeline_->warmup_bucket(util::TimeBucket::of(start).prev());
  const auto report = pipeline_->step(start.plus_minutes(15));

  ASSERT_EQ(report.buckets_processed, 3);
  const auto& st = report.stages;
  EXPECT_GE(st.source_ms, 2.0 * report.buckets_processed);
  EXPECT_LE(st.source_ms + st.learn_ms + st.localize_ms + st.active_ms +
                st.background_ms,
            st.total_ms);
  const auto snap = registry.snapshot();
  const auto* hist = snap.histogram("step.source_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 3u);  // one span per bucket
}

TEST_F(PipelineTest, SnapshotRestoreContinuesBitIdentically) {
  // A pipeline killed mid-incident and restored from its snapshot must emit
  // the exact blame/diagnosis stream of an uninterrupted pipeline. This is
  // the contract live_pipeline --snapshot-dir and the restart scenario packs
  // stand on.
  faults_.add(sim::Fault{.kind = sim::FaultKind::MiddleAs,
                         .as = used_transit(*topo_, net::Region::Europe),
                         .added_ms = 120.0,
                         .start = util::MinuteTime::from_day_hour(2, 10),
                         .duration_minutes = 120});
  const BlameItConfig cfg = shortened_config();

  const auto run = [&](std::optional<int> restart_after_minute) {
    build(cfg);
    warm(2);
    std::vector<std::vector<BlameResult>> blames;
    std::vector<std::uint32_t> diag_culprits;
    for (int minute = 9 * 60 + 15; minute <= 12 * 60; minute += 15) {
      const auto report = pipeline_->step(
          util::MinuteTime::from_days(2).plus_minutes(minute));
      blames.push_back(report.blames);
      for (const auto& diag : report.diagnoses) {
        diag_culprits.push_back(diag.culprit ? diag.culprit->value : 0);
      }
      if (restart_after_minute && minute == *restart_after_minute) {
        store::SnapshotWriter writer;
        pipeline_->save_snapshot(writer);
        auto reader = store::SnapshotReader::from_bytes(writer.serialize(),
                                                        "<restart>");
        auto source = [this](util::TimeBucket bucket) {
          analysis::QuartetBuilder builder{topo_,
                                           analysis::BadnessThresholds{}};
          generator_->generate_aggregates(
              bucket, [&](const analysis::QuartetKey& k, int n, double mean) {
                builder.add_aggregate(k, n, mean);
              });
          return builder.take_bucket(bucket);
        };
        pipeline_.reset();  // kill mid-incident
        pipeline_ = std::make_unique<BlameItPipeline>(topo_, engine_.get(),
                                                      source, cfg);
        pipeline_->restore_snapshot(reader);
      }
    }
    return std::pair{blames, diag_culprits};
  };

  const auto reference = run(std::nullopt);
  const auto restarted = run(10 * 60 + 30);  // mid-fault
  EXPECT_FALSE(reference.first.empty());
  EXPECT_EQ(restarted.first, reference.first);
  EXPECT_EQ(restarted.second, reference.second);
}

TEST_F(PipelineTest, InvalidConstructionThrows) {
  build();
  auto source = [](util::TimeBucket) {
    return std::vector<analysis::Quartet>{};
  };
  EXPECT_THROW((BlameItPipeline{nullptr, engine_.get(), source}),
               std::invalid_argument);
  EXPECT_THROW((BlameItPipeline{topo_, nullptr, source}),
               std::invalid_argument);
  BlameItConfig bad;
  bad.probe_budget_per_run = -1;
  EXPECT_THROW((BlameItPipeline{topo_, engine_.get(), source, bad}),
               std::invalid_argument);
}

TEST_F(PipelineTest, StartsTheLearnHelperOnlyWhenTwoCpusAreUsable) {
  build();
  auto source = [](util::TimeBucket) {
    return std::vector<analysis::Quartet>{};
  };
  {
    const PinnedToOneCpu pin;
    const auto before = thread_count();
    const BlameItPipeline serial{topo_, engine_.get(), source};
    EXPECT_EQ(thread_count(), before);
    EXPECT_FALSE(serial.learns_beside_localize());
  }
  if (detail::LearnHelper::allowed_cpus().size() < 2) {
    GTEST_SKIP() << "needs two usable CPUs";
  }
  const auto before = thread_count();
  const BlameItPipeline overlapped{topo_, engine_.get(), source};
  EXPECT_EQ(thread_count(), before + 1);
  EXPECT_TRUE(overlapped.learns_beside_localize());
}

TEST(LearnHelperTest, AffinityAfterPostExcludesThePostersCpu) {
  const std::vector<int> cpus = detail::LearnHelper::allowed_cpus();
  if (cpus.size() < 2) GTEST_SKIP() << "needs two usable CPUs";
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof original, &original),
            0);
  detail::LearnHelper helper{cpus};
  // Post from each CPU in turn, this thread pinned there.
  for (const int poster : cpus) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(poster, &one);
    ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof one, &one), 0);
    int ran_on = -1;
    helper.post([&] { ran_on = sched_getcpu(); });
    EXPECT_EQ(helper.join(), nullptr);
    cpu_set_t got;
    CPU_ZERO(&got);
    ASSERT_EQ(
        pthread_getaffinity_np(helper.native_handle(), sizeof got, &got), 0);
    EXPECT_FALSE(CPU_ISSET(poster, &got)) << "poster on CPU " << poster;
    for (const int cpu : cpus) {
      if (cpu != poster) {
        EXPECT_TRUE(CPU_ISSET(cpu, &got)) << "CPU " << cpu;
      }
    }
    EXPECT_NE(ran_on, poster);
  }
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof original, &original),
            0);
}

TEST(LearnHelperTest, JoinReturnsWhatTheJobThrew) {
  detail::LearnHelper helper{detail::LearnHelper::allowed_cpus()};
  helper.post([] { throw std::runtime_error{"learn failed"}; });
  const std::exception_ptr error = helper.join();
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
  // The helper keeps serving posts after a failed one.
  bool ran = false;
  helper.post([&] { ran = true; });
  EXPECT_EQ(helper.join(), nullptr);
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace blameit::core

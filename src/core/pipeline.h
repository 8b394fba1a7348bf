// The end-to-end BlameIt workflow (§3.3, Fig 7): every cadence interval,
// pull the new quartets, learn expected RTTs, run Algorithm 1, track
// middle-segment incident runs, rank them by client-time product, spend the
// traceroute budget on the top issues, and keep background baselines fresh.
#pragma once

#include <array>
#include <exception>
#include <functional>
#include <memory>
#include <semaphore>
#include <thread>
#include <vector>

#include "analysis/expected_rtt.h"
#include "analysis/quartet.h"
#include "core/active.h"
#include "core/background.h"
#include "core/blame.h"
#include "core/config.h"
#include "core/passive.h"
#include "core/predictors.h"
#include "core/prioritizer.h"
#include "net/topology.h"
#include "obs/registry.h"
#include "sim/traceroute.h"
#include "store/snapshot.h"

namespace blameit::core {

namespace detail {

/// The thread an overlapped step learns on (DESIGN §7), parked between
/// buckets. Each post() first narrows its affinity to the given CPUs minus
/// the one the poster is running on, so the woken helper cannot queue
/// behind the poster on that CPU.
class LearnHelper {
 public:
  /// Starts the parked thread; `cpus` are the CPUs its jobs may run on.
  explicit LearnHelper(std::vector<int> cpus);
  /// Stops the thread. A posted job must have been joined.
  ~LearnHelper();
  LearnHelper(const LearnHelper&) = delete;
  LearnHelper& operator=(const LearnHelper&) = delete;

  /// Runs `job` on the helper. One job at a time: join() before the next.
  void post(std::function<void()> job);
  /// Waits for the posted job; returns what it threw, if anything.
  [[nodiscard]] std::exception_ptr join();

  /// The helper thread (tests read its affinity).
  [[nodiscard]] std::thread::native_handle_type native_handle() {
    return thread_.native_handle();
  }

  /// CPUs the calling thread may run on.
  [[nodiscard]] static std::vector<int> allowed_cpus();

 private:
  std::vector<int> cpus_;
  std::function<void()> job_;  ///< empty: stop
  std::exception_ptr error_;
  std::binary_semaphore posted_{0};
  std::binary_semaphore done_{0};
  std::thread thread_;
};

}  // namespace detail

/// Everything one pipeline step produced; benches and the ops alerting layer
/// consume this.
struct StepReport {
  /// Wall time each stage of this step spent on the step thread, in
  /// milliseconds. Filled on every step (a handful of clock reads); mirrored
  /// into the registry's step.*_ms histograms when one is attached.
  struct StageTimings {
    double source_ms = 0.0;      ///< QuartetSource calls (ingest drain/take)
    /// Day start and learning; when learning overlaps localize, the day
    /// start and the join's wait (learning's own time: step.learn_busy_ms).
    double learn_ms = 0.0;
    double localize_ms = 0.0;    ///< Algorithm 1 across the step's buckets
    double active_ms = 0.0;      ///< ranking + on-demand traceroutes
    double background_ms = 0.0;  ///< periodic/churn baseline probes
    double total_ms = 0.0;       ///< whole step() call
  };

  util::MinuteTime now;
  int buckets_processed = 0;
  StageTimings stages;
  /// Per-bad-quartet blame results across the step's buckets.
  std::vector<BlameResult> blames;
  /// Middle issues of the newest bucket, ranked by client-time product.
  std::vector<MiddleIssue> ranked_issues;
  /// Active diagnoses for the top issues within the probe budget.
  std::vector<ActiveDiagnosis> diagnoses;
  int on_demand_probes = 0;
  int background_probes = 0;
  /// Of on_demand_probes, attempts that were retries of lost/truncated
  /// traceroutes (they are charged against the same budget).
  int active_retries = 0;
  /// The traceroute engine was inside an outage window at step time: the
  /// active phase was skipped entirely and this step's output is passive
  /// localization only (issues stay ranked but undiagnosed).
  bool degraded_passive_only = false;

  [[nodiscard]] int count(Blame b) const noexcept {
    int n = 0;
    for (const auto& result : blames) n += result.blame == b;
    return n;
  }
};

class BlameItPipeline {
 public:
  /// Supplies the finalized quartets of one bucket (the analytics-cluster
  /// feed). The pipeline owns nothing upstream of this.
  using QuartetSource =
      std::function<std::vector<analysis::Quartet>(util::TimeBucket)>;

  /// `registry`, when given, receives metrics from every layer the pipeline
  /// owns (learner, passive localizer, probers, per-stage step spans); null
  /// keeps the uninstrumented zero-overhead path. Throws
  /// std::invalid_argument for an invalid config, naming the field.
  /// Starts the learn helper when the calling thread may use two or more
  /// CPUs; the output is bit-identical either way.
  BlameItPipeline(const net::Topology* topology,
                  sim::TracerouteEngine* engine, QuartetSource source,
                  BlameItConfig config = {}, obs::Registry* registry = nullptr);

  /// Processes all buckets whose window closed in (last step, now]. Call at
  /// the configured cadence (15 min ⇒ 3 buckets per step).
  StepReport step(util::MinuteTime now);

  /// Invoked at the very end of every step() with the finished report —
  /// this is how the service layer publishes into its VerdictStore without
  /// the pipeline knowing the service exists. Runs on the step thread,
  /// after all stage timings are recorded; it must not call back into the
  /// pipeline. The observer only sees the report, so pipeline output is
  /// identical with or without one.
  using StepObserver = std::function<void(const StepReport&)>;
  void set_step_observer(StepObserver observer) {
    observer_ = std::move(observer);
  }

  // Component access (benches, tests, ablations).
  [[nodiscard]] const analysis::ExpectedRttLearner& learner() const noexcept {
    return learner_;
  }
  [[nodiscard]] const DurationPredictor& durations() const noexcept {
    return durations_;
  }
  [[nodiscard]] const ClientVolumePredictor& clients() const noexcept {
    return clients_;
  }
  [[nodiscard]] const BaselineStore& baselines() const noexcept {
    return baselines_;
  }
  [[nodiscard]] const BlameItConfig& config() const noexcept {
    return config_;
  }
  /// Whether steps learn on the helper thread beside localize.
  [[nodiscard]] bool learns_beside_localize() const noexcept {
    return helper_ != nullptr;
  }

  /// Feed a bucket's quartets into the learner/predictors WITHOUT running
  /// localization or probing — used to warm up history cheaply before the
  /// evaluation window.
  void warmup_bucket(util::TimeBucket bucket);

  /// Serializes all learned/cursor state into snapshot sections: pipeline
  /// cursors + open runs, the expected-RTT learner, both predictors, and
  /// the baseline store. A pipeline restored from the result and fed the
  /// same subsequent buckets produces bit-identical step reports. What is
  /// deliberately NOT saved: probe accounting (cost counters, not state)
  /// and background prober targets (rebuilt deterministically from routing
  /// state on the next step).
  void save_snapshot(store::SnapshotWriter& writer) const;
  /// Replaces this pipeline's learned/cursor state from a snapshot. The
  /// pipeline must have been constructed with the same config. On exception
  /// the pipeline state is unspecified; discard it.
  void restore_snapshot(const store::SnapshotReader& reader);

 private:
  /// Evicts stale learner and client state once per day, then makes sure
  /// the learner has `day`'s expectation table frozen.
  void start_day(int day);

  void learn_from(const std::vector<analysis::Quartet>& quartets,
                  util::TimeBucket bucket);

  /// Learns from one bucket and runs Algorithm 1 on it: beside each other
  /// on the helper and this thread when there is one, else back to back.
  std::vector<BlameResult> learn_and_localize(
      const std::vector<analysis::Quartet>& quartets, util::TimeBucket bucket,
      StepReport::StageTimings& stages);

  /// Consumes churn-feed events up to `upto` (exclusive), advancing
  /// `cursor`: PathChange events drive baseline transfers (§13), SteerShift
  /// events open steer-shield windows.
  void apply_churn_events(const std::vector<net::ChurnEvent>& events,
                          std::size_t& cursor, util::MinuteTime upto);

  /// Expands the live shield entries into the per-⟨location, /24⟩ set the
  /// passive phase consults for `bucket`, pruning expired entries.
  [[nodiscard]] SteerShield build_shield(util::TimeBucket bucket);

  const net::Topology* topology_;
  sim::TracerouteEngine* engine_;
  QuartetSource source_;
  BlameItConfig config_;

  analysis::ExpectedRttLearner learner_;
  PassiveLocalizer passive_;
  DurationPredictor durations_;
  ClientVolumePredictor clients_;
  BaselineStore baselines_;
  BackgroundProber background_;
  ActiveLocalizer active_;

  // Open middle-issue runs: key -> (last bucket seen bad, run length).
  struct OpenRun {
    util::TimeBucket last;
    int length = 0;
  };
  std::unordered_map<std::uint64_t, OpenRun> open_runs_;

  /// One live steer-shield window (§13): /24s of `prefix` recently
  /// re-steered onto `location` are shielded from Cloud blame until `until`.
  /// Appended in churn-feed order and pruned front-to-back as buckets pass,
  /// so the vector order — and hence the snapshot bytes — is deterministic.
  struct ShieldEntry {
    net::CloudLocationId location;
    net::Prefix prefix;
    util::MinuteTime until;
  };
  std::vector<ShieldEntry> shield_entries_;

  util::TimeBucket next_bucket_{0};
  util::MinuteTime last_step_{0};
  int last_evict_day_ = -1;
  StepObserver observer_;

  // Instruments (null without a registry).
  obs::Histogram* source_ms_h_ = nullptr;
  obs::Histogram* learn_ms_h_ = nullptr;
  obs::Histogram* learn_busy_ms_h_ = nullptr;
  obs::Histogram* localize_ms_h_ = nullptr;
  obs::Histogram* active_ms_h_ = nullptr;
  obs::Histogram* background_ms_h_ = nullptr;
  obs::Histogram* total_ms_h_ = nullptr;
  obs::Counter* on_demand_probes_c_ = nullptr;
  obs::Counter* background_probes_c_ = nullptr;
  obs::Counter* buckets_c_ = nullptr;
  obs::Counter* degraded_steps_c_ = nullptr;
  obs::Counter* active_retries_c_ = nullptr;
  obs::Gauge* probe_budget_g_ = nullptr;
  obs::Histogram* snapshot_save_ms_h_ = nullptr;
  obs::Histogram* snapshot_load_ms_h_ = nullptr;
  obs::Counter* churn_transfers_c_ = nullptr;
  obs::Counter* steer_shields_c_ = nullptr;
  obs::Counter* cold_backfills_c_ = nullptr;

  /// Runs learn_from() beside localize; null when the step is serial.
  /// Declared last so it stops before anything its jobs touch is destroyed.
  std::unique_ptr<detail::LearnHelper> helper_;
};

}  // namespace blameit::core

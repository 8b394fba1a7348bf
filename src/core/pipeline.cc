#include "core/pipeline.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <stdexcept>
#include <string>
#include <utility>

namespace blameit::core {

namespace detail {

LearnHelper::LearnHelper(std::vector<int> cpus)
    : cpus_(std::move(cpus)), thread_([this] {
        for (posted_.acquire(); job_; posted_.acquire()) {
          try {
            job_();
          } catch (...) {
            error_ = std::current_exception();
          }
          done_.release();
        }
      }) {}

LearnHelper::~LearnHelper() {
  job_ = nullptr;
  posted_.release();
  thread_.join();
}

std::vector<int> LearnHelper::allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void LearnHelper::post(std::function<void()> job) {
  // A woken thread tends to be placed on its waker's CPU, where it waits
  // until the waker blocks; without this the two halves of the step mostly
  // ran one after the other on one CPU.
  const int poster_cpu = sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus_) {
    if (cpu != poster_cpu) CPU_SET(cpu, &set);
  }
  // Best effort: if the mask is refused, only placement suffers.
  (void)pthread_setaffinity_np(thread_.native_handle(), sizeof set, &set);
  job_ = std::move(job);
  posted_.release();
}

std::exception_ptr LearnHelper::join() {
  done_.acquire();
  return std::exchange(error_, nullptr);
}

}  // namespace detail

BlameItPipeline::BlameItPipeline(const net::Topology* topology,
                                 sim::TracerouteEngine* engine,
                                 QuartetSource source, BlameItConfig config,
                                 obs::Registry* registry)
    : topology_(topology),
      engine_(engine),
      source_(std::move(source)),
      config_(config),
      learner_(analysis::ExpectedRttConfig{
          .window_days = config.expected_rtt_window_days,
          .reservoir_per_day = 256,
          .registry = registry}),
      passive_(topology, &learner_, config, registry),
      durations_(config.duration_horizon_buckets),
      clients_(config.client_predictor_days),
      background_(topology, engine, &baselines_, config, registry),
      active_(topology, engine, &baselines_, config, registry) {
  if (!topology_ || !engine_ || !source_) {
    throw std::invalid_argument{"BlameItPipeline: null dependency"};
  }
  if (config_.probe_budget_per_run < 0) {
    throw std::invalid_argument{
        "BlameItConfig: probe_budget_per_run must be >= 0, got " +
        std::to_string(config_.probe_budget_per_run)};
  }
  // Learning overlaps localize whenever this thread may use two CPUs; a
  // process pinned to one (taskset -c 0) gets the serial step.
  if (auto cpus = detail::LearnHelper::allowed_cpus(); cpus.size() >= 2) {
    helper_ = std::make_unique<detail::LearnHelper>(std::move(cpus));
  }
  source_ms_h_ = obs::histogram(registry, "step.source_ms");
  learn_ms_h_ = obs::histogram(registry, "step.learn_ms");
  learn_busy_ms_h_ = obs::histogram(registry, "step.learn_busy_ms");
  localize_ms_h_ = obs::histogram(registry, "step.localize_ms");
  active_ms_h_ = obs::histogram(registry, "step.active_ms");
  background_ms_h_ = obs::histogram(registry, "step.background_ms");
  total_ms_h_ = obs::histogram(registry, "step.total_ms");
  on_demand_probes_c_ = obs::counter(registry, "pipeline.on_demand_probes");
  background_probes_c_ = obs::counter(registry, "pipeline.background_probes");
  buckets_c_ = obs::counter(registry, "pipeline.buckets_processed");
  degraded_steps_c_ = obs::counter(registry, "pipeline.degraded_steps");
  active_retries_c_ = obs::counter(registry, "pipeline.active_retries");
  probe_budget_g_ = obs::gauge(registry, "pipeline.probe_budget_per_run");
  obs::set(probe_budget_g_, static_cast<double>(config_.probe_budget_per_run));
  snapshot_save_ms_h_ = obs::histogram(registry, "store.snapshot_save_ms");
  snapshot_load_ms_h_ = obs::histogram(registry, "store.snapshot_load_ms");
  churn_transfers_c_ = obs::counter(registry, "pipeline.churn_transfers");
  steer_shields_c_ = obs::counter(registry, "pipeline.steer_shields");
  cold_backfills_c_ = obs::counter(registry, "pipeline.cold_backfills");
}

void BlameItPipeline::apply_churn_events(
    const std::vector<net::ChurnEvent>& events, std::size_t& cursor,
    util::MinuteTime upto) {
  for (; cursor < events.size() && events[cursor].time < upto; ++cursor) {
    const net::ChurnEvent& event = events[cursor];
    if (event.kind == net::ChurnKind::SteerShift) {
      if (config_.churn_steer_shield) {
        shield_entries_.push_back(ShieldEntry{
            .location = event.location,
            .prefix = event.prefix,
            .until = event.time.plus_minutes(config_.churn_shield_minutes)});
        obs::add(steer_shields_c_);
      }
      continue;
    }
    // Baseline transfer (§13): a PathChange that swaps the middle segment
    // leaves the new ⟨location, path, device⟩ groups with no history — seed
    // them from the old path's baseline so the very next buckets compare
    // against an inherited (discounted) expectation instead of falling to
    // Insufficient. A Withdraw/Announce pair has no old path to inherit
    // from; a PathChange that keeps the middle segment needs nothing.
    if (!config_.churn_baseline_transfer) continue;
    if (event.kind != net::ChurnKind::PathChange) continue;
    if (!event.old_route || !event.new_route) continue;
    if (event.old_route->middle == event.new_route->middle) continue;
    const int day = event.time.day();
    for (const net::DeviceClass device : net::kAllDeviceClasses) {
      const auto to =
          analysis::middle_key(event.location, event.new_route->middle,
                               device);
      bool moved = learner_.transfer_baseline(
          analysis::middle_key(event.location, event.old_route->middle,
                               device),
          to, day);
      if (!moved) {
        // Same-path sibling fallback: the other device class of the old
        // ⟨location, path⟩ often has history when this one does not (e.g.
        // a mobile-sparse region).
        for (const net::DeviceClass sibling : net::kAllDeviceClasses) {
          if (sibling == device) continue;
          moved = learner_.transfer_baseline(
              analysis::middle_key(event.location, event.old_route->middle,
                                   sibling),
              to, day);
          if (moved) break;
        }
      }
      if (moved) obs::add(churn_transfers_c_);
    }
  }
}

SteerShield BlameItPipeline::build_shield(util::TimeBucket bucket) {
  SteerShield shield;
  const util::MinuteTime start = bucket.start();
  std::erase_if(shield_entries_, [&](const ShieldEntry& entry) {
    return entry.until < start;
  });
  for (const ShieldEntry& entry : shield_entries_) {
    const std::uint32_t base = entry.prefix.network >> 8;
    const std::uint32_t count = entry.prefix.slash24_count();
    for (std::uint32_t b = 0; b < count; ++b) {
      shield.insert(
          steer_shield_key(entry.location, net::Slash24{base + b}));
    }
  }
  return shield;
}

void BlameItPipeline::save_snapshot(store::SnapshotWriter& writer) const {
  const obs::ScopedTimer span{snapshot_save_ms_h_};
  {
    std::string& out = writer.section("pipeline-cursors");
    store::put_varint(out, 2);  // cursors payload format (2 adds shields)
    store::put_svarint(out, next_bucket_.index);
    store::put_svarint(out, last_step_.minutes);
    store::put_svarint(out, last_evict_day_);
    std::vector<std::uint64_t> keys;
    keys.reserve(open_runs_.size());
    for (const auto& [key, run] : open_runs_) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    store::put_varint(out, keys.size());
    std::uint64_t prev = 0;
    for (const std::uint64_t key : keys) {
      store::put_varint(out, key - prev);
      prev = key;
      const OpenRun& run = open_runs_.at(key);
      store::put_svarint(out, run.last.index);
      store::put_svarint(out, run.length);
    }
    // Format 2: live steer-shield windows, in feed order (deterministic —
    // see ShieldEntry). A restored pipeline keeps shielding exactly the
    // /24s the killed one was shielding.
    store::put_varint(out, shield_entries_.size());
    for (const ShieldEntry& entry : shield_entries_) {
      store::put_varint(out, entry.location.value);
      store::put_varint(out, entry.prefix.network);
      store::put_varint(out, entry.prefix.length);
      store::put_svarint(out, entry.until.minutes);
    }
  }
  learner_.save_state(writer);
  durations_.save(writer.section("durations"));
  clients_.save(writer.section("clients"));
  baselines_.save(writer.section("baselines"));
}

void BlameItPipeline::restore_snapshot(const store::SnapshotReader& reader) {
  const obs::ScopedTimer span{snapshot_load_ms_h_};
  {
    store::ByteReader in = reader.section("pipeline-cursors");
    const std::uint64_t format = in.varint();
    if (format != 1 && format != 2) {
      in.fail("unsupported cursors payload format " + std::to_string(format));
    }
    const std::int64_t next_bucket = in.svarint();
    const std::int64_t last_step = in.svarint();
    const std::int64_t last_evict_day = in.svarint();
    if (last_evict_day < -1 || last_evict_day > INT_MAX) {
      in.fail("eviction day out of range");
    }
    std::unordered_map<std::uint64_t, OpenRun> open_runs;
    const std::size_t n_runs = in.count("open-run count");
    open_runs.reserve(n_runs);
    std::uint64_t prev = 0;
    for (std::size_t r = 0; r < n_runs; ++r) {
      prev += in.varint();
      OpenRun run;
      run.last = util::TimeBucket{in.svarint()};
      const std::int64_t length = in.svarint();
      if (length < 1 || length > INT_MAX) in.fail("run length out of range");
      run.length = static_cast<int>(length);
      open_runs.emplace(prev, run);
    }
    std::vector<ShieldEntry> shields;
    if (format >= 2) {
      const std::size_t n_shields = in.count("shield entry count");
      shields.reserve(n_shields);
      for (std::size_t s = 0; s < n_shields; ++s) {
        ShieldEntry entry;
        entry.location.value = static_cast<std::uint16_t>(in.varint());
        entry.prefix.network = static_cast<std::uint32_t>(in.varint());
        const std::uint64_t length = in.varint();
        if (length > 32) in.fail("shield prefix length out of range");
        entry.prefix.length = static_cast<std::uint8_t>(length);
        entry.until.minutes = in.svarint();
        shields.push_back(entry);
      }
    }
    in.expect_done();
    next_bucket_ = util::TimeBucket{next_bucket};
    last_step_ = util::MinuteTime{last_step};
    last_evict_day_ = static_cast<int>(last_evict_day);
    open_runs_ = std::move(open_runs);
    shield_entries_ = std::move(shields);
  }
  learner_.restore_state(reader);
  {
    store::ByteReader in = reader.section("durations");
    durations_.restore(in);
    in.expect_done();
  }
  {
    store::ByteReader in = reader.section("clients");
    clients_.restore(in);
    in.expect_done();
  }
  {
    store::ByteReader in = reader.section("baselines");
    baselines_.restore(in);
    in.expect_done();
  }
}

void BlameItPipeline::learn_from(
    const std::vector<analysis::Quartet>& quartets, util::TimeBucket bucket) {
  const int day = bucket.day();
  // Expected-RTT learning: every quartet's mean teaches both its cloud-node
  // group and its BGP-path group.
  for (const auto& q : quartets) {
    learner_.observe(analysis::cloud_key(q.key.location, q.key.device), day,
                     q.mean_rtt_ms);
    learner_.observe(
        analysis::middle_key(q.key.location, q.middle, q.key.device), day,
        q.mean_rtt_ms);
  }
  // Client-volume learning per ⟨location, BGP path⟩.
  std::unordered_map<std::uint64_t, double> users;
  for (const auto& q : quartets) {
    users[middle_issue_key(q.key.location, q.middle)] +=
        q.sample_count / config_.samples_per_client_estimate;
  }
  for (const auto& [key, volume] : users) {
    clients_.observe(key, bucket, volume);
  }
}

void BlameItPipeline::start_day(int day) {
  if (day != last_evict_day_) {
    learner_.evict_stale(day);  // ends by freezing the day's table
    clients_.evict_stale(day);
    last_evict_day_ = day;
  }
  learner_.freeze_day(day);  // a no-op unless restored mid-day
}

std::vector<BlameResult> BlameItPipeline::learn_and_localize(
    const std::vector<analysis::Quartet>& quartets, util::TimeBucket bucket,
    StepReport::StageTimings& stages) {
  using Clock = std::chrono::steady_clock;
  const auto ms = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
  };
  const auto learn = [&] {
    const obs::ScopedTimer busy_span{learn_busy_ms_h_};
    learn_from(quartets, bucket);
  };

  const auto t0 = Clock::now();
  start_day(bucket.day());
  if (helper_) {
    helper_->post(learn);
  } else {
    learn();
  }
  const auto t1 = Clock::now();
  // localize() reads only the frozen day table, which learning never
  // writes: learning adds day d's samples, outside its window. An error
  // waits for the join, since the job reads `quartets`.
  std::vector<BlameResult> blames;
  std::exception_ptr error;
  try {
    const SteerShield shield =
        config_.churn_steer_shield ? build_shield(bucket) : SteerShield{};
    blames = passive_.localize(quartets, bucket.day(),
                               shield.empty() ? nullptr : &shield);
  } catch (...) {
    error = std::current_exception();
  }
  const auto t2 = Clock::now();
  if (helper_) {
    if (auto learn_error = helper_->join(); !error) error = learn_error;
  }
  if (error) std::rethrow_exception(error);
  const auto t3 = Clock::now();

  const double learn_ms = ms(t0, t1) + ms(t2, t3);
  const double localize_ms = ms(t1, t2);
  stages.learn_ms += learn_ms;
  stages.localize_ms += localize_ms;
  obs::record(learn_ms_h_, learn_ms);
  obs::record(localize_ms_h_, localize_ms);
  return blames;
}

void BlameItPipeline::warmup_bucket(util::TimeBucket bucket) {
  start_day(bucket.day());
  learn_from(source_(bucket), bucket);
  if (bucket >= next_bucket_) {
    next_bucket_ = bucket.next();
    last_step_ = bucket.next().start();
  }
}

StepReport BlameItPipeline::step(util::MinuteTime now) {
  const auto step_t0 = std::chrono::steady_clock::now();
  StepReport report;
  report.now = now;

  // §13 churn awareness: the BGP feed is fetched (through the chaos layer,
  // which may drop or delay events) only when a churn knob is on — with all
  // of them off the step loop never consults the feed and its output is
  // bit-identical to the churn-blind pipeline.
  const bool churn_aware =
      config_.churn_baseline_transfer || config_.churn_steer_shield;
  std::vector<net::ChurnEvent> churn;
  std::size_t churn_cursor = 0;
  if (churn_aware) {
    churn = sim::fetch_churn(topology_->routing(), engine_->chaos(),
                             last_step_.plus_minutes(1), now.plus_minutes(1));
  }

  std::vector<analysis::Quartet> latest_quartets;
  std::vector<BlameResult> latest_blames;
  util::TimeBucket bucket = next_bucket_;
  for (; bucket.next().start() <= now; bucket = bucket.next()) {
    // Transfers and shield windows opened by events up to this bucket's
    // close must be visible to this bucket's localization.
    if (churn_aware) {
      apply_churn_events(churn, churn_cursor, bucket.next().start());
    }
    std::vector<analysis::Quartet> quartets;
    {
      const obs::ScopedTimer source_span{source_ms_h_,
                                         &report.stages.source_ms};
      quartets = source_(bucket);
    }
    std::vector<BlameResult> blames =
        learn_and_localize(quartets, bucket, report.stages);

    // Middle-issue run tracking for the duration predictor.
    std::unordered_map<std::uint64_t, bool> bad_now;
    for (const auto& b : blames) {
      if (b.blame == Blame::Middle) {
        bad_now[middle_issue_key(b.quartet.key.location, b.quartet.middle)] =
            true;
      }
    }
    for (auto it = open_runs_.begin(); it != open_runs_.end();) {
      if (bad_now.contains(it->first)) {
        // Still bad: extend below (erase from bad_now to mark handled).
        it->second.last = bucket;
        ++it->second.length;
        bad_now.erase(it->first);
        ++it;
      } else {
        durations_.record_duration(it->first, it->second.length);
        it = open_runs_.erase(it);
      }
    }
    for (const auto& [key, flag] : bad_now) {
      open_runs_.emplace(key, OpenRun{.last = bucket, .length = 1});
    }

    ++report.buckets_processed;
    report.blames.insert(report.blames.end(), blames.begin(), blames.end());
    latest_quartets = std::move(quartets);
    latest_blames = std::move(blames);
  }
  next_bucket_ = bucket;
  // Drain feed events between the last processed bucket's close and `now`
  // (the next step's fetch window starts at now + 1, so they would
  // otherwise be lost).
  if (churn_aware) apply_churn_events(churn, churn_cursor, now.plus_minutes(1));
  obs::add(buckets_c_, static_cast<std::uint64_t>(report.buckets_processed));

  // Active phase over the newest bucket's middle issues.
  if (!latest_blames.empty()) {
    const obs::ScopedTimer active_span{active_ms_h_,
                                       &report.stages.active_ms};
    auto issues = collect_middle_issues(latest_blames,
                                        config_.samples_per_client_estimate);
    for (auto& issue : issues) {
      const auto it =
          open_runs_.find(middle_issue_key(issue.location, issue.middle));
      if (it != open_runs_.end()) issue.elapsed_buckets = it->second.length;
    }
    const ProbePrioritizer prioritizer{&durations_, &clients_};
    report.ranked_issues =
        prioritizer.rank(std::move(issues), bucket.prev());
    if (engine_->in_outage(now)) {
      // Measurement plane down: degrade gracefully to passive-only. The
      // issues stay ranked (tickets can still open at path granularity);
      // no budget is burned on probes that cannot answer.
      report.degraded_passive_only = true;
      obs::add(degraded_steps_c_);
    } else {
      // Spend-based budgeting: a diagnosis under chaos may cost several
      // attempts (quorum probes + retries), and every attempt counts
      // against the same §5.3 budget — hardening must not quietly inflate
      // the probing bill.
      const int budget = config_.probe_budget_per_run;
      // For §13 probed-cold back-fill: which device classes each issue's
      // Middle-blamed quartets actually cover (the learner is seeded only
      // for groups that exist).
      std::unordered_map<std::uint64_t,
                         std::array<bool, net::kAllDeviceClasses.size()>>
          devices_by_issue;
      if (config_.probe_on_no_baseline) {
        for (const auto& b : latest_blames) {
          if (b.blame != Blame::Middle) continue;
          devices_by_issue[middle_issue_key(b.quartet.key.location,
                                            b.quartet.middle)]
                          [static_cast<std::size_t>(b.quartet.key.device)] =
                              true;
        }
      }
      for (std::size_t i = 0;
           i < report.ranked_issues.size() && report.on_demand_probes < budget;
           ++i) {
        const auto& issue = report.ranked_issues[i];
        // The open run tells us when the badness began: the diagnosis must
        // compare against a baseline predating it.
        std::optional<util::MinuteTime> issue_start;
        const auto rit =
            open_runs_.find(middle_issue_key(issue.location, issue.middle));
        if (rit != open_runs_.end()) {
          issue_start = util::TimeBucket{rit->second.last.index -
                                         rit->second.length + 1}
                            .start();
        }
        auto diag =
            active_.diagnose(issue.location, issue.middle,
                             issue.representative_block, now, issue_start);
        report.on_demand_probes += diag.probes_spent;
        report.active_retries += diag.retries;
        if (diag.grade == BaselineGrade::ProbedCold) {
          // Back-fill (§13): the confirmed cold-path measurement becomes
          // the path's baseline, and its end-to-end RTT seeds the learner
          // for the issue's device classes. observe() feeds only the
          // CURRENT day and expected() medians exclude it, so today's
          // verdicts are untouched — but tomorrow the new path starts with
          // history instead of falling to Insufficient again.
          baselines_.update(
              issue.location, issue.middle,
              Baseline{.when = now,
                       .cloud_ms = diag.probe.cloud_ms,
                       .contributions = diag.probe.contributions()});
          const auto dit = devices_by_issue.find(
              middle_issue_key(issue.location, issue.middle));
          if (dit != devices_by_issue.end()) {
            const double rtt = diag.probe.hops.back().cumulative_rtt_ms;
            for (std::size_t d = 0; d < net::kAllDeviceClasses.size(); ++d) {
              if (!dit->second[d]) continue;
              learner_.observe(
                  analysis::middle_key(issue.location, issue.middle,
                                       net::kAllDeviceClasses[d]),
                  now.day(), rtt);
            }
          }
          obs::add(cold_backfills_c_);
        }
        report.diagnoses.push_back(std::move(diag));
      }
    }
  }

  {
    const obs::ScopedTimer background_span{background_ms_h_,
                                           &report.stages.background_ms};
    report.background_probes = background_.step(last_step_, now);
  }
  last_step_ = now;

  obs::add(on_demand_probes_c_,
           static_cast<std::uint64_t>(report.on_demand_probes));
  obs::add(background_probes_c_,
           static_cast<std::uint64_t>(report.background_probes));
  obs::add(active_retries_c_,
           static_cast<std::uint64_t>(report.active_retries));
  report.stages.total_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - step_t0)
                               .count();
  obs::record(total_ms_h_, report.stages.total_ms);
  if (observer_) observer_(report);
  return report;
}

}  // namespace blameit::core

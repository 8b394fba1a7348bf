#include "workload.h"

#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/quartet.h"
#include "analysis/record.h"
#include "core/pipeline.h"
#include "ingest/engine.h"
#include "layers.h"
#include "loadgen.h"
#include "net/topology.h"
#include "obs/registry.h"
#include "scenario/score.h"
#include "sim/scenario.h"
#include "sim/telemetry.h"
#include "sim/traceroute.h"
#include "stats.h"
#include "svc/http.h"
#include "svc/service.h"
#include "svc/verdict_store.h"
#include "trace.h"
#include "util/digest.h"
#include "util/rng.h"
#include "util/time.h"

namespace bench_e2e {

namespace {

using namespace blameit;

// Threads that generate inputs between timed regions (never while the
// system is measured). Busy threads stay at or below the 4 cores of the
// reference box in every phase.
constexpr std::size_t kGenThreads = 4;
constexpr int kIngestShards = 2;
/// Two HTTP workers, two client connections: with the client thread and
/// the publishing step loop that is four busy threads on serve_mixed.
constexpr int kHttpWorkers = 2;
/// Ladder pass limits. Past the service's capacity the backlog grows for the
/// whole rung and p99 reaches tens of ms; below it p99 stays well under
/// 20 ms even through a scheduler stall of a shared host, so the limit
/// separates saturation from a passing stall.
constexpr double kLatencyLimitUs = 20'000.0;
constexpr double kLateLimitMs = 5.0;  ///< generator lateness p99 limit
constexpr std::int64_t kQueryTimeoutNs = 2'000'000'000;
constexpr int kSegmentSteps = 4;  ///< serve_mixed steps per serving segment
/// Share of queries that ask for /v1/incidents. No query log of such a
/// service exists to take it from: one in ten keeps the incident list, which
/// serializes every incident since the cutoff, a minority of the load while
/// giving it over a thousand samples a run, enough for its own p99.
constexpr double kIncidentsShare = 0.1;
/// Skew of verdict lookups over keys: the exponent the topology gives client
/// populations across /24s (net/topology.cc, after the paper's §2.4).
constexpr double kQueryZipfExponent = 0.9;
/// Queries in one segment's pool, which the load generator cycles, so the
/// harness's query memory does not grow with the rate.
constexpr std::size_t kQueryPool = 2048;
constexpr double kAccuracyFloor = 0.5;

/// Default-seed, default-size digests of each workload's verdict stream
/// (blames and diagnoses of every step, as the scenario runner folds them).
const std::map<std::string, std::string>& pinned_digests() {
  static const std::map<std::string, std::string> pins = {
      {"stream_ingest", "e9ea462e198cd3de"},
      {"wide_analytics", "6c862c25d67023ee"},
      {"serve_mixed", "58ec6095e217cb25"},
  };
  return pins;
}

enum class Kind { StreamIngest, WideAnalytics, ServeMixed };

struct Spec {
  bool records = false;  ///< raw records through IngestEngine
  bool paced = false;    ///< steps on a wall-clock pace while serving
  net::TopologyConfig topology;
  int window_days = 2;
  int warmup_days = 2;
  int warmup_stride = 1;  ///< warm on every n-th bucket
  int replay_steps = 0;   ///< closed-loop steps before the query phase
  int prime_steps = 0;    ///< unmeasured steps before serving starts
  /// Steps whose inputs are generated together. One step's inputs at a time
  /// keep what the harness holds beside the system small next to it (a
  /// surged step carries ~2x the records, wherever the seed puts it).
  int chunk_steps = 1;
  /// Set-ups per run; setup_s is their median. One costs 20-60 ms, and on a
  /// shared host the same set-up runs 30-40% slower for stretches of a few
  /// hundred ms; 80 span 2-5 s, so the median weighs the host's load over
  /// seconds, as the replay's timings do, not over one such stretch.
  int setup_repeats = 80;
  int operating_segments = 12;
  double operating_rate = 5000.0;
  std::vector<double> ladder;
  /// Each rate runs twice; it passes when either attempt does, so one
  /// scheduler stall on a shared box does not lower the capacity.
  int ladder_attempts = 2;
  double segment_seconds = 0.25;
  int incidents_per_region_day = 2;
  bool surges = false;

  [[nodiscard]] int total_steps() const {
    return replay_steps + prime_steps +
           (paced ? operating_segments * kSegmentSteps : 0);
  }
  [[nodiscard]] std::int64_t replay_first_bucket() const {
    return static_cast<std::int64_t>(warmup_days) * util::kBucketsPerDay;
  }
};

std::vector<double> geometric_ladder(double first, double ratio, int rungs) {
  std::vector<double> out;
  double rate = first;
  for (int i = 0; i < rungs; ++i) {
    out.push_back(std::round(rate));
    rate *= ratio;
  }
  return out;
}

Spec make_spec(const Options& o) {
  Spec s;
  Kind kind{};
  if (o.workload == "stream_ingest") {
    kind = Kind::StreamIngest;
  } else if (o.workload == "wide_analytics") {
    kind = Kind::WideAnalytics;
  } else if (o.workload == "serve_mixed") {
    kind = Kind::ServeMixed;
  } else {
    throw std::invalid_argument{"unknown workload '" + o.workload + "'"};
  }
  const int seconds = std::max(o.seconds, 1);
  s.records = kind == Kind::StreamIngest;
  s.paced = kind == Kind::ServeMixed;
  s.surges = kind == Kind::StreamIngest;
  // Three low rungs, then 9% steps through the loopback service's saturation
  // point (200K-280K req/s with two workers on the reference box) and past
  // it, to 400K.
  s.ladder = geometric_ladder(100000.0, std::pow(2.0, 0.125), 17);
  s.ladder.insert(s.ladder.begin(), {10000.0, 25000.0, 50000.0});

  if (kind == Kind::StreamIngest) {
    // The bench-scale topology: ~450 client /24s at 14 cloud locations.
    s.topology.locations_per_region = 2;
    s.topology.eyeballs_per_region = 8;
    s.topology.blocks_per_eyeball = 8;
    s.window_days = 2;
    s.warmup_days = 2;
    s.replay_steps = std::max(100, seconds * 60);
  } else {
    // ~10.7K client /24s: 7 regions x 6 eyeballs x 256 /24s.
    s.topology.locations_per_region = 2;
    s.topology.metros_per_region = 14;
    s.topology.blocks_per_eyeball = 256;
    s.topology.blocks_per_prefix = 256;
    s.topology.eyeballs_per_region = 6;
    s.window_days = 2;
    s.warmup_days = 1;
    // Generating this scale's telemetry costs ~10x the system's own work,
    // so the learner warms on one bucket an hour of the warm-up day.
    s.warmup_stride = 12;
    // Four incidents per region a day: the accuracy over ~40 incidents
    // moves by seed far less than over ~20.
    s.incidents_per_region_day = 4;
    if (kind == Kind::WideAnalytics) {
      s.replay_steps = std::max(100, seconds * 24);
    } else {
      // The pipeline publishes during the operating-rate segments only:
      // 26 of them give 104 paced steps beside a steady reader load.
      s.prime_steps = kSegmentSteps;
      s.operating_segments = 26;
    }
  }

  if (o.tiny) {
    s.topology = net::TopologyConfig{};
    s.topology.locations_per_region = 1;
    s.topology.eyeballs_per_region = 4;
    s.topology.blocks_per_eyeball = 8;
    s.window_days = 1;
    s.warmup_days = 1;
    s.warmup_stride = 4;
    s.replay_steps = s.paced ? 0 : 24;
    s.setup_repeats = 2;
    s.operating_segments = 1;
    s.operating_rate = 2000.0;
    s.ladder = {2000.0, 4000.0};
    s.segment_seconds = 0.5;  // 1000 samples at 2000 req/s: p99 supported
  }
  return s;
}

/// The process's resident-set high-water mark in MiB (VmHWM), since start
/// or since the last reset_peak_rss().
double peak_rss_mb() {
  double kib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char text[256];
    while (std::fgets(text, sizeof text, f)) {
      if (std::sscanf(text, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

/// Lowers the high-water mark to the current RSS (Linux 4.0 and later), so
/// memory the input generator used and freed before a timed region does not
/// count toward it. False when the kernel refused.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

template <typename... Args>
void line(const char* fmt, Args... args) {
  std::printf(fmt, args...);
  std::printf("\n");
}

/// Runs body(i) for i in [0, n) on up to `max_threads` threads.
template <typename F>
void parallel_for(std::size_t n, std::size_t max_threads, F&& body) {
  const std::size_t threads = std::min(max_threads, n);
  std::atomic<std::size_t> next{0};
  std::vector<std::jthread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) body(i);
    });
  }
}

/// Returns freed input buffers to the OS between timed regions, so peak RSS
/// tracks the system's memory rather than which allocator arena the
/// generator threads last used.
void release_inputs() { ::malloc_trim(0); }

// ---------------------------------------------------------------------------
// The simulated internet the system watches: topology, faults, telemetry
// generator, traceroute engine, and the injected incidents (ground truth).

struct Environment {
  std::unique_ptr<net::Topology> topology;
  sim::FaultInjector faults;
  std::unique_ptr<sim::TelemetryGenerator> generator;
  std::unique_ptr<sim::RttModel> model;
  std::unique_ptr<sim::TracerouteEngine> engine;
  std::vector<sim::Incident> incidents;
};

std::vector<sim::Incident> schedule_incidents(const Spec& spec,
                                              const net::Topology& topo,
                                              std::uint64_t seed) {
  const std::int64_t start_min =
      spec.replay_first_bucket() * util::kBucketMinutes;
  const int window_min = spec.total_steps() * 15;
  const int usable_min = window_min - 60 - 30;
  if (usable_min < 120) return {};
  const double days = static_cast<double>(window_min) / util::kMinutesPerDay;
  const int per_region = std::max(
      1, static_cast<int>(std::ceil(spec.incidents_per_region_day * days)));
  sim::IncidentSuiteConfig cfg;
  cfg.count = per_region * static_cast<int>(net::kAllRegions.size());
  cfg.seed = util::hash_combine(seed, 0x1c1de47ull);
  cfg.first_start = util::MinuteTime{start_min + 60};
  cfg.max_duration_minutes = std::min(360, std::max(90, usable_min / 4));
  cfg.min_gap_minutes = std::max(30, usable_min / per_region - 150);
  auto incidents = sim::make_incident_suite(topo, cfg);

  // Bench-scale targeting, as in the 88-incident validation: middle faults
  // on transits that do not dominate a location, /24 faults on blocks
  // active enough to clear the quartet sample floor.
  util::Rng rng{util::hash_combine(seed, 0x7a29e7ull)};
  std::map<net::Region, std::vector<const net::ClientBlock*>> active;
  for (const auto& block : topo.blocks()) {
    active[block.region].push_back(&block);
  }
  for (auto& [region, blocks] : active) {
    std::sort(blocks.begin(), blocks.end(), [](const auto* a, const auto* b) {
      return a->activity_weight > b->activity_weight;
    });
    blocks.resize(std::max<std::size_t>(1, blocks.size() / 3));
  }
  const std::int64_t last_end = start_min + window_min - 30;
  std::vector<sim::Incident> out;
  for (auto& inc : incidents) {
    if (inc.end().minutes > last_end) continue;
    if (inc.kind == sim::FaultKind::MiddleAs) {
      const auto eligible = sim::non_dominant_transits(topo, inc.region);
      if (eligible.empty()) continue;
      inc.target_as = eligible[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(eligible.size()) - 1))];
      inc.culprit_as = inc.target_as;
    } else if (inc.kind == sim::FaultKind::ClientBlock) {
      const auto& blocks = active[inc.region];
      const auto* block = blocks[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(blocks.size()) - 1))];
      inc.block = block->block;
      inc.culprit_as = block->client_as;
    }
    out.push_back(std::move(inc));
  }
  return out;
}

std::unique_ptr<Environment> make_environment(const Spec& spec,
                                              std::uint64_t seed) {
  auto env = std::make_unique<Environment>();
  env->topology = net::make_topology(spec.topology);
  sim::TelemetryConfig telemetry;
  telemetry.seed = util::hash_combine(seed, 0x7e1e3e7ull);
  env->generator = std::make_unique<sim::TelemetryGenerator>(
      env->topology.get(), &env->faults, telemetry);
  env->model =
      std::make_unique<sim::RttModel>(env->topology.get(), &env->faults);
  env->engine = std::make_unique<sim::TracerouteEngine>(env->topology.get(),
                                                        env->model.get());
  if (spec.surges) {
    // One 8x regional flash crowd per simulated day (cf. the flash_crowd
    // pack) at a seed-chosen morning hour. The region rotates by day, the
    // same for every seed, so the surged volume is not a seed lottery.
    util::Rng rng{util::hash_combine(seed, 0x5a29e5ull)};
    const int days = (spec.total_steps() * 15) / util::kMinutesPerDay + 1;
    for (int d = 0; d < days; ++d) {
      const auto region = net::kAllRegions[static_cast<std::size_t>(d) %
                                           net::kAllRegions.size()];
      const int hour = static_cast<int>(rng.uniform_int(6, 14));
      env->generator->add_surge(sim::TrafficSurge{
          .start = util::MinuteTime::from_day_hour(spec.warmup_days + d, hour),
          .duration_minutes = 240,
          .region = region,
          .multiplier = 8.0});
    }
  }
  env->incidents = schedule_incidents(spec, *env->topology, seed);
  sim::apply_incidents(env->incidents,
                       sim::ApplyTargets{.injector = &env->faults,
                                         .generator = env->generator.get(),
                                         .topology = env->topology.get()});
  return env;
}

using QuartetsByBucket =
    std::unordered_map<std::int64_t, std::vector<analysis::Quartet>>;

/// Pre-built quartets (generate_aggregates -> QuartetBuilder) for buckets.
QuartetsByBucket build_quartets(const Environment& env,
                                const std::vector<std::int64_t>& buckets) {
  std::vector<std::vector<analysis::Quartet>> built(buckets.size());
  parallel_for(buckets.size(), kGenThreads, [&](std::size_t i) {
    const util::TimeBucket bucket{buckets[i]};
    analysis::QuartetBuilder builder{env.topology.get(),
                                     analysis::BadnessThresholds{}};
    env.generator->generate_aggregates(
        bucket, [&](const analysis::QuartetKey& k, int n, double mean) {
          builder.add_aggregate(k, n, mean);
        });
    built[i] = builder.take_bucket(bucket);
  });
  QuartetsByBucket out;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    out.emplace(buckets[i], std::move(built[i]));
  }
  return out;
}

/// Shuffled raw records for buckets [first, last], one bucket at a time:
/// generating a bucket holds the generator's shuffle buffer beside the copy
/// (a surged bucket is several MB), and doing that on several threads at
/// once would set the process's peak RSS.
std::vector<std::vector<analysis::RttRecord>> build_records(
    const Environment& env, std::int64_t first, std::int64_t last) {
  std::vector<std::vector<analysis::RttRecord>> out(
      static_cast<std::size_t>(std::max<std::int64_t>(0, last - first + 1)));
  for (std::size_t i = 0; i < out.size(); ++i) {
    env.generator->generate_records_shuffled(
        util::TimeBucket{first + static_cast<std::int64_t>(i)},
        [&](const analysis::RttRecord& r) { out[i].push_back(r); });
  }
  return out;
}

// ---------------------------------------------------------------------------
// The system under test, and the benchmark's QuartetSource into it.

struct SpanNames {
  explicit SpanNames(Tracer& t)
      : step(t.intern(kSpanStep)),
        submit(t.intern(kSpanSubmit)),
        pipeline_step(t.intern(kSpanPipelineStep)),
        source(t.intern(kSpanSource)),
        drain(t.intern(kSpanDrain)),
        take(t.intern(kSpanTake)),
        publish(t.intern(kSpanPublish)),
        request(t.intern("http.request")) {}
  int step, submit, pipeline_step, source, drain, take, publish, request;
};

/// The pipeline's QuartetSource. During warm-up it hands out copies of the
/// shared warm-up quartets (the copy time is not charged to set-up); during
/// the replay it either drains the ingest engine (stream_ingest) or hands
/// over quartets built ahead of time.
class Feed {
 public:
  Feed(Tracer& tracer, const SpanNames& names, ingest::IngestEngine* ingest)
      : tracer_(tracer), names_(names), ingest_(ingest) {}

  void warm_from(const QuartetsByBucket* warm) { warm_ = warm; }
  void begin_step(std::uint64_t group) {
    group_ = group;
    flushed_ = false;
  }
  QuartetsByBucket& ready() { return ready_; }
  [[nodiscard]] double handover_ms() const { return handover_ms_; }
  [[nodiscard]] std::size_t quartets() const { return quartets_; }

  std::vector<analysis::Quartet> operator()(util::TimeBucket bucket) {
    if (warm_) {
      const std::int64_t t0 = now_ns();
      std::vector<analysis::Quartet> copy;
      if (const auto it = warm_->find(bucket.index); it != warm_->end()) {
        copy = it->second;
      }
      handover_ms_ += ms_between(t0, now_ns());
      return copy;
    }
    const ScopedSpan source{tracer_, names_.source, group_};
    std::vector<analysis::Quartet> out;
    if (ingest_) {
      if (!flushed_) {
        const ScopedSpan drain{tracer_, names_.drain, group_};
        ingest_->flush();
        flushed_ = true;
      }
      const ScopedSpan take{tracer_, names_.take, group_};
      out = ingest_->take_bucket(bucket);
    } else if (const auto it = ready_.find(bucket.index); it != ready_.end()) {
      out = std::move(it->second);
      ready_.erase(it);
    }
    quartets_ += out.size();
    return out;
  }

 private:
  Tracer& tracer_;
  const SpanNames& names_;
  ingest::IngestEngine* ingest_;
  const QuartetsByBucket* warm_ = nullptr;
  QuartetsByBucket ready_;
  std::uint64_t group_ = 0;
  bool flushed_ = false;
  double handover_ms_ = 0.0;
  std::size_t quartets_ = 0;
};

/// Members are destroyed bottom-up: the server stops before the service
/// and store it reads, the pipeline goes before its feed, the ingest
/// engine (which joins its workers) before the topology.
struct System {
  std::unique_ptr<net::Topology> topology;
  std::unique_ptr<ingest::IngestEngine> ingest;
  std::unique_ptr<Feed> feed;
  std::unique_ptr<core::BlameItPipeline> pipeline;
  std::unique_ptr<svc::VerdictStore> store;
  std::unique_ptr<svc::VerdictService> service;
  std::unique_ptr<svc::HttpServer> server;

  double topology_ms = 0.0;
  double construct_ms = 0.0;
  double warmup_ms = 0.0;
  [[nodiscard]] double setup_s() const {
    return (topology_ms + construct_ms + warmup_ms) / 1e3;
  }
};

/// Builds and warms one system. Input generation is not in any timing: the
/// warm-up quartets were built beforehand and their copy-out is excluded.
std::unique_ptr<System> set_up(const Spec& spec, const Environment& env,
                               const QuartetsByBucket& warm,
                               const std::vector<std::int64_t>& warm_buckets,
                               obs::Registry* registry, Tracer& tracer,
                               const SpanNames& names) {
  auto sys = std::make_unique<System>();
  const std::int64_t t0 = now_ns();
  sys->topology = net::make_topology(spec.topology);
  const std::int64_t t1 = now_ns();
  if (spec.records) {
    sys->ingest = std::make_unique<ingest::IngestEngine>(
        sys->topology.get(), analysis::BadnessThresholds{},
        ingest::IngestConfig{.shards = kIngestShards, .registry = registry});
  }
  sys->feed = std::make_unique<Feed>(tracer, names, sys->ingest.get());
  core::BlameItConfig config;
  config.expected_rtt_window_days = spec.window_days;
  Feed* feed = sys->feed.get();
  sys->pipeline = std::make_unique<core::BlameItPipeline>(
      sys->topology.get(), env.engine.get(),
      [feed](util::TimeBucket bucket) { return (*feed)(bucket); }, config,
      registry);
  sys->store = std::make_unique<svc::VerdictStore>(
      svc::VerdictStore::Config{.registry = registry});
  sys->service =
      std::make_unique<svc::VerdictService>(sys->store.get(), registry);
  svc::HttpServerConfig http;
  http.workers = kHttpWorkers;
  sys->server =
      std::make_unique<svc::HttpServer>(sys->service->handler(), http);
  if (!sys->server->start()) {
    throw std::runtime_error{"cannot bind the verdict service on loopback"};
  }
  const std::int64_t t2 = now_ns();
  feed->warm_from(&warm);
  for (const std::int64_t b : warm_buckets) {
    sys->pipeline->warmup_bucket(util::TimeBucket{b});
  }
  feed->warm_from(nullptr);
  const std::int64_t t3 = now_ns();
  sys->topology_ms = ms_between(t0, t1);
  sys->construct_ms = ms_between(t1, t2);
  sys->warmup_ms = ms_between(t2, t3) - feed->handover_ms();
  return sys;
}

// ---------------------------------------------------------------------------
// Correctness: the verdict-stream digest, incident scoring, and per-step
// invariants.

/// Same fields as the scenario runner's per-step fold.
void fold_step(util::Digest64& digest, const core::StepReport& report) {
  digest.update(report.now.minutes);
  digest.update(static_cast<std::uint64_t>(report.blames.size()));
  for (const auto& blame : report.blames) {
    const auto& key = blame.quartet.key;
    digest.update(static_cast<std::uint64_t>(key.block.block));
    digest.update(static_cast<std::uint64_t>(key.location.value));
    digest.update(static_cast<std::uint64_t>(key.device));
    digest.update(key.bucket.index);
    digest.update(static_cast<std::uint64_t>(blame.blame));
    digest.update(static_cast<std::uint64_t>(
        blame.faulty_as ? blame.faulty_as->value : 0));
  }
  digest.update(static_cast<std::uint64_t>(report.diagnoses.size()));
  for (const auto& diag : report.diagnoses) {
    digest.update(static_cast<std::uint64_t>(diag.location.value));
    digest.update(static_cast<std::uint64_t>(diag.middle.value));
    digest.update(
        static_cast<std::uint64_t>(diag.culprit ? diag.culprit->value : 0));
    digest.update(static_cast<std::uint64_t>(diag.confidence));
    digest.update(diag.probe_reached);
    digest.update(diag.coarse_middle);
  }
  digest.update(report.degraded_passive_only);
}

struct Ledger {
  Ledger(const net::Topology* topology, std::vector<sim::Incident> incidents,
         const core::BlameItConfig& config)
      : scorer(topology, std::move(incidents)),
        budget(config.probe_budget_per_run),
        per_diag_cap(config.active_quorum_k *
                     (1 + config.active_probe_retries)) {}

  void observe(const core::StepReport& report) {
    fold_step(digest, report);
    scorer.observe(report);
    ++steps;
    on_demand += static_cast<std::uint64_t>(report.on_demand_probes);
    background += static_cast<std::uint64_t>(report.background_probes);
    // The step's spend may overshoot the budget by at most one diagnosis.
    if (report.on_demand_probes > budget + per_diag_cap - 1) {
      ++failed_steps;
      problems.push_back("probe budget overshot at minute " +
                         std::to_string(report.now.minutes));
    }
  }

  util::Digest64 digest;
  scenario::IncidentScorer scorer;
  int budget;
  int per_diag_cap;
  std::uint64_t steps = 0;
  std::uint64_t on_demand = 0;
  std::uint64_t background = 0;
  std::uint64_t failed_steps = 0;
  std::vector<std::string> problems;
};

/// After a quiescent publish, every key of the last report must read back
/// from the store with the blame and bucket that report gave it last.
void check_store(const svc::VerdictStore& store,
                 const core::StepReport& report,
                 std::vector<std::string>& problems) {
  std::map<std::pair<std::uint32_t, std::uint16_t>, const core::BlameResult*>
      last;
  for (const auto& b : report.blames) {
    last[{b.quartet.key.block.block, b.quartet.key.location.value}] = &b;
  }
  for (const auto& [key, b] : last) {
    const auto v =
        store.lookup(net::Slash24{key.first}, net::CloudLocationId{key.second});
    if (!v || v->blame != b->blame || v->bucket != b->quartet.key.bucket) {
      problems.push_back("verdict store disagrees with the last step for " +
                         net::Slash24{key.first}.to_string());
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// One pass: set up (repeatedly), replay, serve.

struct Rung {
  double rate = 0.0;
  int attempt = 0;
  Summary latency_us;
  Summary late_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool pass = false;
};

struct PassResult {
  std::vector<double> setup_s;
  std::vector<double> topology_ms;
  std::vector<double> warmup_ms;

  // Timed steps (closed loop, or paced while serving).
  std::vector<double> lag_ms;
  std::int64_t window_ns = 0;
  int timed_steps = 0;
  StageSums stages;  ///< StepReport stage timings summed over timed steps
  std::size_t timed_quartets = 0;
  std::uint64_t records_submitted = 0;
  std::uint64_t timed_on_demand = 0;
  std::uint64_t timed_background = 0;

  // Whole run. RSS high-water marks (MiB) while the system works: set-up,
  // replay steps, query phase; input generation before each is excluded.
  double peak_setup_mb = 0.0;
  double peak_replay_mb = 0.0;
  double peak_serve_mb = 0.0;
  bool peak_reset_ok = true;
  std::string digest;
  int steps = 0;
  std::uint64_t on_demand = 0;
  std::uint64_t background = 0;
  int incidents = 0;
  int incidents_passed = 0;
  std::uint64_t failed_steps = 0;
  std::vector<std::string> problems;

  // Query phase.
  std::vector<double> op_latency_us;
  std::vector<double> op_late_ms;
  std::array<std::vector<double>, 3> op_latency_by_kind;  ///< by QueryKind
  /// p99 of each operating segment (1250 samples, 12 beyond, at full size).
  std::vector<double> op_segment_p99_us;
  std::size_t op_attempted = 0;
  std::size_t op_failed = 0;
  std::size_t json_checked = 0;
  std::vector<Rung> rungs;  ///< traced pass only

  // Layer counters (traced pass).
  std::optional<ingest::IngestStats> ingest_stats;
  std::optional<obs::Snapshot> registry;
  std::size_t verdict_state_bytes = 0;
  std::uint64_t requests_served = 0;
  std::int64_t lookup_ns = 0;  ///< direct store lookups, summed
  std::size_t lookups = 0;
  std::size_t lookups_found = 0;
  std::map<std::string, NameTotals> spans;

  /// peak_rss_mb: the system running. Set-up is left out: it holds the
  /// warm-up inputs beside 80 systems in turn, and the one it keeps enters
  /// the replay.
  [[nodiscard]] double peak_mb() const {
    return std::max(peak_replay_mb, peak_serve_mb);
  }
  [[nodiscard]] double throughput() const {
    return window_ns > 0 ? 15.0 * timed_steps /
                               (static_cast<double>(window_ns) / 1e9)
                         : 0.0;
  }
};

/// A segment's query pool, which the load generator cycles. A query asks
/// for /v1/incidents since an hour before the last step with probability
/// kIncidentsShare. Otherwise it asks /v1/verdict about one key of the
/// topology's whole ⟨/24, cloud location⟩ space, drawn Zipf over ranks on
/// which the keys holding a live verdict come first (operators look up the
/// clients the system blamed before the rest), each group in random order.
/// So a verdict query finds a verdict with probability H(live) / H(space),
/// H the sum of the Zipf weights: the miss share follows from the store and
/// the topology.
std::vector<Query> build_queries(util::Rng& rng, const svc::VerdictStore& store,
                                 const net::Topology& topo, std::size_t count,
                                 std::int64_t since_minutes) {
  const auto key_of = [](net::Slash24 block, net::CloudLocationId location) {
    return (std::uint64_t{block.block} << 16) | location.value;
  };
  std::vector<std::pair<net::Slash24, net::CloudLocationId>> live;
  std::vector<std::uint64_t> live_keys;
  for (const auto& v : store.lookup(net::Prefix{0, 0})) {
    live.emplace_back(v.block, v.location);
    live_keys.push_back(key_of(v.block, v.location));
  }
  std::sort(live_keys.begin(), live_keys.end());
  std::shuffle(live.begin(), live.end(), rng);
  const auto weight = [](std::size_t rank) {
    return std::pow(static_cast<double>(rank), -kQueryZipfExponent);
  };
  std::vector<double> cdf(live.size());
  double h_live = 0.0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    h_live += weight(i + 1);
    cdf[i] = h_live;
  }
  const auto& blocks = topo.blocks();
  const auto& locations = topo.locations();
  const std::size_t space = blocks.size() * locations.size();
  double h_space = 0.0;
  for (std::size_t rank = 1; rank <= space; ++rank) h_space += weight(rank);
  const double hit_share = h_space > 0.0 ? h_live / h_space : 0.0;
  const auto verdict_query = [](QueryKind kind, net::Slash24 block,
                                net::CloudLocationId location) {
    return Query{kind,
                 "GET /v1/verdict?client=" + block.to_string() +
                     "&cloud=" + location.to_string() +
                     " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
                 block.block, location.value};
  };
  const std::string incidents =
      "GET /v1/incidents?since=" +
      std::to_string(std::max<std::int64_t>(0, since_minutes)) +
      " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::vector<Query> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.chance(kIncidentsShare)) {
      out.push_back(Query{QueryKind::Incidents, incidents, 0, 0});
    } else if (rng.chance(hit_share)) {
      const double x = rng.uniform() * h_live;
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), x);
      const auto& [block, loc] = live[std::min<std::size_t>(
          static_cast<std::size_t>(it - cdf.begin()), live.size() - 1)];
      out.push_back(verdict_query(QueryKind::Verdict, block, loc));
    } else {
      // The other ranks are in random order, so each key without a live
      // verdict is equally likely.
      std::size_t b = 0;
      std::size_t l = 0;
      do {
        b = pick(blocks.size());
        l = pick(locations.size());
      } while (std::binary_search(live_keys.begin(), live_keys.end(),
                                  key_of(blocks[b].block, locations[l].id)));
      out.push_back(
          verdict_query(QueryKind::Miss, blocks[b].block, locations[l].id));
    }
  }
  return out;
}

class Pass {
 public:
  Pass(const Spec& spec, const Options& options, bool traced)
      : spec_(spec),
        options_(options),
        traced_(traced),
        tracer_(traced),
        names_(tracer_) {}

  PassResult run() {
    env_ = make_environment(spec_, options_.seed);
    if (traced_) registry_ = std::make_unique<obs::Registry>();
    set_up_repeatedly();
    ledger_ = std::make_unique<Ledger>(env_->topology.get(), env_->incidents,
                                       sys_->pipeline->config());
    next_submit_ = spec_.replay_first_bucket();
    if (spec_.replay_steps > 0) replay_closed(spec_.replay_steps, true);
    if (spec_.prime_steps > 0) replay_closed(spec_.prime_steps, false);
    if (!spec_.paced && last_report_) {
      check_store(*sys_->store, *last_report_, result_.problems);
    }
    if (sys_->ingest) {
      // The replay is over: stop the shard workers, whose idle park/wake
      // cycle would otherwise share the cores with the query phase.
      result_.ingest_stats = sys_->ingest->stats();
      sys_->ingest->close();
    }
    serve();
    if (spec_.paced && last_report_) {
      check_store(*sys_->store, *last_report_, result_.problems);
    }
    finish();
    return std::move(result_);
  }

 private:
  /// Frees the generator's leftovers and restarts the RSS high-water mark:
  /// the system works next.
  void begin_system_work() {
    release_inputs();
    result_.peak_reset_ok = reset_peak_rss() && result_.peak_reset_ok;
  }
  static void note_peak(double& slot) { slot = std::max(slot, peak_rss_mb()); }

  void set_up_repeatedly() {
    // Warm-up input: the last warmup_days of history before the replay, on
    // every warmup_stride-th bucket, ending on the last bucket before the
    // replay (so the first step starts exactly at the replay).
    std::vector<std::int64_t> warm_buckets;
    const std::int64_t end = spec_.replay_first_bucket();
    for (std::int64_t b = end - 1;
         b >= end - static_cast<std::int64_t>(spec_.warmup_days) *
                        util::kBucketsPerDay;
         b -= spec_.warmup_stride) {
      warm_buckets.push_back(b);
    }
    std::reverse(warm_buckets.begin(), warm_buckets.end());
    {
      const QuartetsByBucket warm = build_quartets(*env_, warm_buckets);
      begin_system_work();
      for (int r = 0; r < spec_.setup_repeats; ++r) {
        // Each set-up starts, as a fresh process would, from memory the
        // allocator has handed back, whatever the previous one left.
        sys_.reset();
        release_inputs();
        // Only the last system is kept; it alone carries the registry.
        const bool last = r + 1 == spec_.setup_repeats;
        sys_ = set_up(spec_, *env_, warm, warm_buckets,
                      last ? registry_.get() : nullptr, tracer_, names_);
        result_.setup_s.push_back(sys_->setup_s());
        result_.topology_ms.push_back(sys_->topology_ms);
        result_.warmup_ms.push_back(sys_->warmup_ms);
      }
      note_peak(result_.peak_setup_mb);
    }
    release_inputs();
  }

  [[nodiscard]] util::MinuteTime step_time(int k) const {
    return util::MinuteTime{spec_.replay_first_bucket() *
                                util::kBucketMinutes +
                            15 * static_cast<std::int64_t>(k + 1)};
  }
  [[nodiscard]] std::int64_t first_bucket_of_step(int k) const {
    return spec_.replay_first_bucket() + 3 * static_cast<std::int64_t>(k);
  }

  /// Builds the quartets of steps [k, k + n) into the feed (untimed).
  void prepare_quartets(int k, int n) {
    std::vector<std::int64_t> buckets;
    for (std::int64_t b = first_bucket_of_step(k);
         b < first_bucket_of_step(k + n); ++b) {
      buckets.push_back(b);
    }
    sys_->feed->ready() = build_quartets(*env_, buckets);
  }

  /// One step: hand over inputs, step, publish. Timed unless `timed` is
  /// false; always folded into the correctness ledger.
  void run_step(int k, bool timed,
                std::vector<std::vector<analysis::RttRecord>>* records,
                std::int64_t records_first) {
    const auto group = static_cast<std::uint64_t>(k);
    const util::MinuteTime now = step_time(k);
    tracer_.set_enabled(traced_ && timed);
    const int root = tracer_.open(names_.step, group);
    const std::int64_t t0 = now_ns();
    if (records) {
      const ScopedSpan submit{tracer_, names_.submit, group};
      // The last bucket this step processes finalizes once the watermark
      // passes its end plus the lateness allowance, so the producer hands
      // over every record up to that watermark first.
      const util::TimeBucket last{first_bucket_of_step(k) + 2};
      const util::MinuteTime watermark =
          sys_->ingest->watermark_to_finalize(last);
      for (; next_submit_ * util::kBucketMinutes < watermark.minutes;
           ++next_submit_) {
        auto& batch =
            (*records)[static_cast<std::size_t>(next_submit_ - records_first)];
        for (const auto& r : batch) sys_->ingest->submit(r);
        if (timed) result_.records_submitted += batch.size();
        std::vector<analysis::RttRecord>{}.swap(batch);
      }
      sys_->ingest->advance_watermark(watermark);
    }
    const std::int64_t ready = now_ns();
    sys_->feed->begin_step(group);
    const std::size_t quartets_before = sys_->feed->quartets();
    core::StepReport report;
    {
      const ScopedSpan step{tracer_, names_.pipeline_step, group};
      report = sys_->pipeline->step(now);
    }
    {
      const ScopedSpan publish{tracer_, names_.publish, group};
      sys_->store->publish(report);
    }
    const std::int64_t done = now_ns();
    tracer_.close(root);

    if (timed) {
      result_.lag_ms.push_back(ms_between(ready, done));
      result_.window_ns += done - t0;
      ++result_.timed_steps;
      result_.stages.learn_ms += report.stages.learn_ms;
      result_.stages.localize_ms += report.stages.localize_ms;
      result_.stages.active_ms += report.stages.active_ms;
      result_.stages.background_ms += report.stages.background_ms;
      result_.timed_quartets += sys_->feed->quartets() - quartets_before;
      result_.timed_on_demand +=
          static_cast<std::uint64_t>(report.on_demand_probes);
      result_.timed_background +=
          static_cast<std::uint64_t>(report.background_probes);
    }
    ledger_->observe(report);
    last_report_ = std::move(report);
  }

  /// Closed loop over `steps` steps, inputs generated a chunk at a time
  /// between timed steps and freed after them.
  void replay_closed(int steps, bool timed) {
    const int end = next_step_ + steps;
    while (next_step_ < end) {
      const int k = next_step_;
      const int n = std::min(spec_.chunk_steps, end - k);
      if (spec_.records) {
        // Up to the bucket the chunk's last watermark needs (one ahead).
        const std::int64_t first = next_submit_;
        const std::int64_t last = first_bucket_of_step(k + n);
        auto records = build_records(*env_, first, last);
        begin_system_work();
        for (int i = 0; i < n; ++i) run_step(k + i, timed, &records, first);
      } else {
        prepare_quartets(k, n);
        begin_system_work();
        for (int i = 0; i < n; ++i) run_step(k + i, timed, nullptr, 0);
      }
      note_peak(result_.peak_replay_mb);
      next_step_ = k + n;
      release_inputs();
    }
  }

  /// One serving segment: queries at `rate` for segment_seconds, open
  /// loop. In an operating segment serve_mixed steps the pipeline on a
  /// fixed pace meanwhile, and the traced run keeps its request spans (the
  /// ladder's millions of requests would swamp the span file).
  PhaseResult run_segment(double rate, bool operating,
                          std::vector<Query>& queries) {
    const auto segment_ns =
        static_cast<std::int64_t>(spec_.segment_seconds * 1e9);
    const bool stepping = spec_.paced && operating;
    if (stepping) prepare_quartets(next_step_, kSegmentSteps);
    util::Rng rng{util::hash_combine(options_.seed,
                                     0x9e3779b9ull + next_segment_++)};
    const std::int64_t since =
        step_time(std::max(next_step_ - 1, 0)).minutes - 60;
    const auto count =
        static_cast<std::size_t>(std::llround(rate * spec_.segment_seconds));
    queries = build_queries(rng, *sys_->store, *env_->topology,
                            std::min(count, kQueryPool), since);
    begin_system_work();
    const OpenLoopSchedule schedule{rate, count, now_ns() + 20'000'000};
    PhaseResult phase;
    {
      const std::jthread client{[&] {
        phase = run_open_loop(sys_->server->port(), kHttpWorkers, queries,
                              schedule, kQueryTimeoutNs);
      }};
      for (int i = 0; stepping && i < kSegmentSteps; ++i) {
        const std::int64_t due = schedule.start_ns + i * segment_ns /
                                                         kSegmentSteps;
        std::this_thread::sleep_until(
            Clock::time_point{std::chrono::nanoseconds{due}});
        run_step(next_step_++, true, nullptr, 0);
      }
    }
    note_peak(result_.peak_serve_mb);
    if (operating && traced_) {
      record_requests(phase);
      time_store_lookups(queries, count);
    }
    release_inputs();
    return phase;
  }

  /// The query phase: segments at the operating rate, then each ladder
  /// rate, attempted again when it fails.
  void serve() {
    for (int s = 0; s < spec_.operating_segments; ++s) {
      std::vector<Query> queries;
      const PhaseResult phase =
          run_segment(spec_.operating_rate, true, queries);
      const auto lat = phase.latencies_us();
      const auto late = phase.lateness_ms();
      result_.op_segment_p99_us.push_back(summarize(lat, 99.0).tail);
      result_.op_latency_us.insert(result_.op_latency_us.end(), lat.begin(),
                                   lat.end());
      result_.op_late_ms.insert(result_.op_late_ms.end(), late.begin(),
                                late.end());
      result_.op_attempted += phase.outcomes.size();
      result_.op_failed += phase.failed;
      result_.json_checked += phase.json_checked;
      if (phase.failed > 0) {
        result_.problems.push_back(
            std::to_string(phase.failed) +
            " failed queries at the operating rate (transport " +
            std::to_string(phase.transport_errors) + ", timeout " +
            std::to_string(phase.timeouts) + ", status " +
            std::to_string(phase.bad_status) + ", json " +
            std::to_string(phase.bad_json) + ")");
      }
      for (std::size_t i = 0; i < phase.outcomes.size(); ++i) {
        const auto& o = phase.outcomes[i];
        if (o.done_ns > 0) {
          const QueryKind kind = queries[i % queries.size()].kind;
          result_.op_latency_by_kind[static_cast<std::size_t>(kind)].push_back(
              static_cast<double>(o.done_ns - o.due_ns) / 1e3);
        }
      }
    }
    // The capacity ladder feeds per-layer metrics only, so only the traced
    // pass climbs it: its requests stay out of the untraced pass's
    // peak_rss_mb, and the untraced run ends sooner.
    if (!traced_) return;
    for (const double rate : spec_.ladder) {
      for (int attempt = 0; attempt < spec_.ladder_attempts; ++attempt) {
        std::vector<Query> queries;
        const PhaseResult phase = run_segment(rate, false, queries);
        Rung rung;
        rung.rate = rate;
        rung.attempt = attempt;
        rung.latency_us = summarize(phase.latencies_us(), 99.0);
        rung.late_ms = summarize(phase.lateness_ms(), 99.0);
        rung.attempted = phase.outcomes.size();
        rung.failed = phase.failed;
        rung.pass = rung.failed == 0 && rung.latency_us.supported &&
                    rung.latency_us.tail <= kLatencyLimitUs &&
                    rung.late_ms.tail <= kLateLimitMs;
        result_.rungs.push_back(rung);
        if (rung.pass) break;
      }
    }
  }

  void record_requests(const PhaseResult& phase) {
    tracer_.set_enabled(true);
    for (const auto& o : phase.outcomes) {
      if (o.done_ns > 0) {
        tracer_.add(names_.request, next_request_, -1, o.due_ns, o.done_ns);
      }
      ++next_request_;
    }
  }

  /// Direct VerdictStore::lookup calls over the verdict keys a segment sent,
  /// in the order sent, three times over.
  void time_store_lookups(const std::vector<Query>& pool, std::size_t sent) {
    std::size_t lookups = 0;
    std::size_t found = 0;
    const std::int64_t t0 = now_ns();
    for (int rep = 0; rep < 3; ++rep) {
      for (std::size_t i = 0; i < sent; ++i) {
        const Query& q = pool[i % pool.size()];
        if (q.kind == QueryKind::Incidents) continue;
        found += sys_->store
                     ->lookup(net::Slash24{q.block},
                              net::CloudLocationId{q.location})
                     .has_value();
        ++lookups;
      }
    }
    result_.lookup_ns += now_ns() - t0;
    result_.lookups += lookups;
    result_.lookups_found += found;
  }

  void finish() {
    result_.digest = ledger_->digest.hex();
    result_.steps = static_cast<int>(ledger_->steps);
    result_.on_demand = ledger_->on_demand;
    result_.background = ledger_->background;
    result_.failed_steps = ledger_->failed_steps;
    for (auto& p : ledger_->problems) result_.problems.push_back(std::move(p));
    for (const auto& score : ledger_->scorer.finish()) {
      ++result_.incidents;
      result_.incidents_passed += score.passed;
    }
    if (traced_) {
      line("  direct store lookups: %zu (%zu found)", result_.lookups,
           result_.lookups_found);
      result_.verdict_state_bytes = sys_->store->verdict_state_bytes();
      result_.requests_served = sys_->server->requests_served();
      result_.registry = registry_->snapshot();
      result_.spans = totals_by_name(tracer_);
      if (!options_.spans_path.empty()) {
        if (std::FILE* f = std::fopen(options_.spans_path.c_str(), "w")) {
          tracer_.write_json(f);
          std::fclose(f);
        }
      }
    }
    sys_.reset();
  }

  const Spec& spec_;
  const Options& options_;
  bool traced_;
  Tracer tracer_;
  SpanNames names_;
  std::unique_ptr<obs::Registry> registry_;  // outlives sys_
  std::unique_ptr<Environment> env_;
  std::unique_ptr<System> sys_;
  std::unique_ptr<Ledger> ledger_;
  std::optional<core::StepReport> last_report_;
  int next_step_ = 0;
  std::int64_t next_submit_ = 0;
  std::uint64_t next_request_ = 0;
  std::uint64_t next_segment_ = 0;
  PassResult result_;
};

// ---------------------------------------------------------------------------
// Reports.

void print_summary(const char* name, const char* unit, const Summary& s) {
  line("  %-26s p50 %.4f %s, p%g %.4f %s  (n=%zu, %zu beyond p%g%s)", name,
       s.p50, unit, s.tail_p, s.tail, unit, s.n, s.beyond, s.tail_p,
       s.supported ? "" : "; tail UNSUPPORTED, fewer than 10 beyond");
}

double capacity(const PassResult& p) {
  double best = 0.0;
  for (const auto& r : p.rungs) {
    if (r.pass) best = std::max(best, r.rate);
  }
  return best;
}

/// " v1 v2 ..." with each value printed by `fmt`.
std::string join(const std::vector<double>& values, const char* fmt) {
  std::string out;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, fmt, v);
    out += buf;
  }
  return out;
}

void print_pass(const Spec& spec, const PassResult& p) {
  line("  steps: %d total, %d timed; window %.3f ms; %zu quartets timed",
       p.steps, p.timed_steps, static_cast<double>(p.window_ns) / 1e6,
       p.timed_quartets);
  line("  set-up repeats (s):%s", join(p.setup_s, " %.4f").c_str());
  line("  peak RSS while the system works (MiB): set-up %.1f, replay %.1f, "
       "queries %.1f%s",
       p.peak_setup_mb, p.peak_replay_mb, p.peak_serve_mb,
       p.peak_reset_ok ? ""
                       : "  (the kernel kept the high-water mark: input "
                         "generation included)");
  print_summary("verdict lag", "ms", summarize(p.lag_ms, 90.0));
  print_summary("query latency @operating", "us",
                summarize(p.op_latency_us, 99.0));
  line("  p99 per operating segment (us):%s",
       join(p.op_segment_p99_us, " %.1f").c_str());
  print_summary("  /v1/verdict (live key)", "us",
                summarize(p.op_latency_by_kind[0], 99.0));
  print_summary("  /v1/verdict (miss)", "us",
                summarize(p.op_latency_by_kind[1], 99.0));
  print_summary("  /v1/incidents", "us",
                summarize(p.op_latency_by_kind[2], 99.0));
  print_summary("loadgen lateness", "ms", summarize(p.op_late_ms, 99.0));
  line("  operating rate %.0f req/s: %zu attempted, %zu failed, %zu bodies "
       "JSON-checked",
       spec.operating_rate, p.op_attempted, p.op_failed, p.json_checked);
  if (!p.rungs.empty()) {
    line("  ladder (pass: p99 <= %.0f us, lateness p99 <= %.1f ms, no "
         "failures):",
         kLatencyLimitUs, kLateLimitMs);
  }
  for (const auto& r : p.rungs) {
    line("    %8.0f req/s #%d  p50 %9.1f us  p99 %10.1f us  late p99 %7.3f "
         "ms  n=%zu failed=%zu  %s",
         r.rate, r.attempt + 1, r.latency_us.p50, r.latency_us.tail,
         r.late_ms.tail, r.attempted, r.failed, r.pass ? "pass" : "FAIL");
  }
  line("  incidents: %d/%d passed; probes: %llu on-demand + %llu background",
       p.incidents_passed, p.incidents,
       static_cast<unsigned long long>(p.on_demand),
       static_cast<unsigned long long>(p.background));
  line("  digest %s", p.digest.c_str());
  if (!p.rungs.empty() && capacity(p) <= 0.0) {
    line("  WARNING: no ladder rate met the limits (a starved host?)");
  }
}

void check_common(const Options& o, const PassResult& p, RunReport& report) {
  for (const auto& problem : p.problems) report.problems.push_back(problem);
  const double accuracy =
      p.incidents ? static_cast<double>(p.incidents_passed) / p.incidents : 1.0;
  if (accuracy < kAccuracyFloor) {
    report.problems.push_back("incident accuracy " + std::to_string(accuracy) +
                              " below the floor");
  }
  const auto& pins = pinned_digests();
  const auto pin = pins.find(o.workload);
  if (o.seed == kDefaultSeed && o.seconds == kDefaultSeconds && !o.tiny &&
      pin != pins.end() && !pin->second.empty() && pin->second != p.digest) {
    report.problems.push_back("digest " + p.digest + " != pinned " +
                              pin->second);
  }
  report.attempted = static_cast<std::uint64_t>(p.steps) + p.op_attempted;
  report.failed = p.failed_steps + p.op_failed;
}

RunReport end_to_end(const Spec& spec, const Options& o, const PassResult& p) {
  RunReport report;
  check_common(o, p, report);
  const Summary lag = summarize(p.lag_ms, 90.0);
  const Summary query = summarize(p.op_latency_us, 99.0);
  const double sim_hours = p.steps * 15.0 / 60.0;
  report.metrics = {
      {"setup_s", "s", median(p.setup_s)},
      {"throughput_sim_min_per_s", "sim-min/s", p.throughput()},
      {"verdict_lag_p50_ms", "ms", lag.p50},
      {"verdict_lag_p90_ms", "ms", lag.tail},
      {"query_p50_us", "us", query.p50},
      {"query_ok_ratio", "fraction",
       p.op_attempted ? 1.0 - static_cast<double>(p.op_failed) /
                                  static_cast<double>(p.op_attempted)
                      : 0.0},
      {"peak_rss_mb", "MiB", p.peak_mb()},
      {"probes_per_sim_hour", "probes/sim-h",
       sim_hours > 0
           ? static_cast<double>(p.on_demand + p.background) / sim_hours
           : 0.0},
      {"incident_accuracy", "fraction",
       p.incidents ? static_cast<double>(p.incidents_passed) / p.incidents
                   : 1.0},
  };
  print_pass(spec, p);
  return report;
}

RunReport per_layer(const Spec& spec, const Options& o,
                    const PassResult& plain, const PassResult& traced) {
  RunReport report;
  check_common(o, plain, report);
  if (traced.digest != plain.digest) {
    report.problems.push_back("traced digest " + traced.digest +
                              " != untraced " + plain.digest);
  }
  for (const auto& problem : traced.problems) {
    report.problems.push_back("traced: " + problem);
  }
  line("untraced pass:");
  print_pass(spec, plain);
  line("traced pass:");
  print_pass(spec, traced);

  const auto& t = traced;
  const LayerTimes layers = layer_times(t.spans, t.stages);
  // The replay.step spans cover the timed steps; they read the clock a few
  // ns outside the untraced window's own reads.
  const double window_ms = layers.window_ms;

  // Registry values by name; absent ones are reported, not fatal.
  const obs::Snapshot& snap = *t.registry;
  const auto hits = snap.counter_value("learner.memo_hits");
  const auto misses = snap.counter_value("learner.memo_misses");
  const auto tracked = snap.gauge_value("learner.tracked_keys");
  Metric memo{"analysis.memo_hit_frac", "fraction", -1.0, !hits || !misses};
  if (!memo.missing) {
    memo.value = *hits + *misses > 0
                     ? static_cast<double>(*hits) /
                           static_cast<double>(*hits + *misses)
                     : 0.0;
  }
  const Metric tracked_keys{"analysis.tracked_keys", "count",
                            tracked.value_or(-1.0), !tracked};

  double busy_frac = 0.0;
  double consumer_parks = 0.0;
  double producer_parks = 0.0;
  double useful = 0.0;
  if (t.ingest_stats) {
    const auto& s = *t.ingest_stats;
    double busy_ns = 0.0;
    for (const auto& shard : s.shards) {
      busy_ns += static_cast<double>(shard.busy_ns);
      consumer_parks += static_cast<double>(shard.consumer_parks);
    }
    if (!s.shards.empty() && t.window_ns > 0) {
      busy_frac = busy_ns / (static_cast<double>(s.shards.size()) *
                             static_cast<double>(t.window_ns));
    }
    producer_parks = static_cast<double>(s.backpressure_waits);
    useful = s.records_in ? static_cast<double>(s.records_out) /
                                static_cast<double>(s.records_in)
                          : 0.0;
  }
  const Summary query = summarize(t.op_latency_us, 99.0);
  const Summary late = summarize(t.op_late_ms, 99.0);
  const double overhead_pct =
      t.throughput() > 0 ? (plain.throughput() / t.throughput() - 1.0) * 100.0
                         : 0.0;
  const Summary plain_lag = summarize(plain.lag_ms, 90.0);
  const Summary traced_lag = summarize(t.lag_ms, 90.0);
  const double lookup_ns = t.lookups ? static_cast<double>(t.lookup_ns) /
                                           static_cast<double>(t.lookups)
                                     : 0.0;

  report.metrics = {
      {"ingest.submit_ms", "ms", layers.submit_ms},
      {"ingest.records_per_s", "1/s",
       layers.submit_ms > 0 ? static_cast<double>(t.records_submitted) /
                                  (layers.submit_ms / 1e3)
                            : 0.0},
      {"ingest.shard_busy_frac", "fraction", busy_frac},
      {"ingest.producer_parks", "count", producer_parks},
      {"ingest.consumer_parks", "count", consumer_parks},
      {"ingest.drain_ms", "ms", layers.drain_ms},
      {"ingest.take_ms", "ms", layers.take_ms},
      {"ingest.useful_record_frac", "fraction", useful},
      {"analysis.learn_ms", "ms", t.stages.learn_ms},
      memo,
      tracked_keys,
      {"core.localize_ms", "ms", t.stages.localize_ms},
      {"core.localize_ns_per_quartet", "ns",
       t.timed_quartets ? t.stages.localize_ms * 1e6 /
                              static_cast<double>(t.timed_quartets)
                        : 0.0},
      {"core.quartets_per_step", "count",
       t.timed_steps ? static_cast<double>(t.timed_quartets) / t.timed_steps
                     : 0.0},
      {"core.source_ms", "ms", layers.source_ms},
      {"core.step_residual_ms", "ms", layers.step_residual_ms},
      {"core.active_ms", "ms", t.stages.active_ms},
      {"core.background_ms", "ms", t.stages.background_ms},
      {"core.on_demand_probes", "count",
       static_cast<double>(t.timed_on_demand)},
      {"core.background_probes", "count",
       static_cast<double>(t.timed_background)},
      {"svc.publish_ms", "ms", layers.publish_ms},
      {"svc.verdict_state_bytes", "bytes",
       static_cast<double>(t.verdict_state_bytes)},
      {"svc.store_lookup_ns", "ns", lookup_ns},
      {"svc.http_overhead_us", "us", query.p50 - lookup_ns / 1e3},
      {"svc.query_p99_us", "us", query.tail},
      {"svc.query_capacity_rps", "req/s", capacity(t)},
      {"svc.requests_served", "count", static_cast<double>(t.requests_served)},
      {"net.topology_build_ms", "ms", median(t.topology_ms)},
      {"core.warmup_ms", "ms", median(t.warmup_ms)},
      {"obs.trace_overhead_pct", "%", overhead_pct},
      {"loadgen.late_p99_ms", "ms", late.tail},
      {"bench.window_ms", "ms", window_ms},
      {"bench.unattributed_ms", "ms", layers.loop_residual_ms},
  };

  line("layer breakdown of the traced window (%.3f ms over %d steps):",
       window_ms, t.timed_steps);
  double sum = 0.0;
  for (const auto& row : layers.rows()) {
    sum += row.ms;
    line("  %-40s %10.3f ms  %5.1f%%", row.name, row.ms,
         window_ms > 0 ? 100.0 * row.ms / window_ms : 0.0);
  }
  line("  %-40s %10.3f ms  (replay.step spans %.3f ms, step loop %.3f ms)",
       "sum", sum, window_ms, static_cast<double>(t.window_ns) / 1e6);
  line("tracing overhead: throughput %.3f -> %.3f sim-min/s (%+.2f%%), lag "
       "p50 %.4f -> %.4f ms",
       plain.throughput(), t.throughput(), overhead_pct, plain_lag.p50,
       traced_lag.p50);
  if (std::abs(sum - window_ms) > 1e-6 * std::max(1.0, window_ms)) {
    report.problems.push_back("layer times do not add up to the window");
  }
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "stream_ingest", "wide_analytics", "serve_mixed"};
  return names;
}

RunReport run_workload(const Options& options) {
  const Spec spec = make_spec(options);
  line("workload %s seed %llu seconds %d%s%s", options.workload.c_str(),
       static_cast<unsigned long long>(options.seed), options.seconds,
       options.trace ? " traced" : "", options.tiny ? " tiny" : "");
  const PassResult plain = Pass{spec, options, false}.run();
  RunReport report;
  if (!options.trace) {
    report = end_to_end(spec, options, plain);
  } else {
    const PassResult traced = Pass{spec, options, true}.run();
    report = per_layer(spec, options, plain, traced);
  }
  report.correct = report.problems.empty();
  for (const auto& problem : report.problems) {
    line("PROBLEM: %s", problem.c_str());
  }
  return report;
}

}  // namespace bench_e2e

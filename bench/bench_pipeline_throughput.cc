// End-to-end analytics throughput: BlameItPipeline::step() latency at 1 and
// 2 analytics threads (serial, and learning beside localize()), over
// identical pre-materialized telemetry so every run processes the same
// quartet stream.
// Results go to stdout and BENCH_pipeline_throughput.json (BenchReport).
// Every configuration's blame count is asserted equal to the 1-thread run's
// — the thread knob must be a pure perf knob (the tests prove it
// bit-exactly).
//
//   $ ./bench_pipeline_throughput [eval_hours=6] [warm_days=2]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "bench/common.h"
#include "core/pipeline.h"
#include "obs/registry.h"
#include "util/table.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blameit;

  const int eval_hours = argc > 1 ? std::atoi(argv[1]) : 6;
  const int warm_days = argc > 2 ? std::atoi(argv[2]) : 2;
  bench::header("pipeline step() throughput: learn beside localize",
                "§3.3 near-real-time passive phase at scale");

  // One stack provides topology + telemetry; ambient incidents make the
  // blame paths (cloud/middle/client/ambiguous) all do real work.
  auto stack = bench::make_stack();
  const auto incidents = bench::ambient_incidents(
      *stack->topology, warm_days, /*days=*/1 + (eval_hours + 23) / 24, 1.5);
  sim::apply_incidents(incidents, stack->faults, stack->generator.get());

  // Materialize every bucket once: warmup [day 0, warm_days) and the eval
  // window, so all configurations consume byte-identical input and the
  // measurement excludes telemetry generation entirely.
  const int warm_buckets = warm_days * util::kBucketsPerDay;
  const int eval_buckets = eval_hours * 60 / util::kBucketMinutes;
  std::printf("materializing %d warmup + %d eval buckets...\n", warm_buckets,
              eval_buckets);
  std::map<std::int64_t, std::vector<analysis::Quartet>> store;
  std::size_t eval_quartets = 0;
  for (int b = 0; b < warm_buckets + eval_buckets; ++b) {
    auto quartets = stack->quartets(util::TimeBucket{b});
    if (b >= warm_buckets) eval_quartets += quartets.size();
    store.emplace(b, std::move(quartets));
  }
  std::printf("eval window: %s quartets over %d buckets\n\n",
              util::fmt_count(eval_quartets).c_str(), eval_buckets);

  const auto source = [&store](util::TimeBucket bucket) {
    const auto it = store.find(bucket.index);
    return it != store.end() ? it->second : std::vector<analysis::Quartet>{};
  };

  // Runs one full configuration: fresh pipeline, untimed warmup, timed
  // step() loop at 15-minute cadence over the eval window.
  struct RunOutcome {
    double wall_ms = 0.0;
    long blames = 0;
  };
  const auto run_config = [&](int threads, obs::Registry* registry = nullptr) {
    core::BlameItConfig cfg = bench::bench_pipeline_config();
    cfg.analytics_threads = threads;
    core::BlameItPipeline pipeline{stack->topology.get(), stack->engine.get(),
                                   source, cfg, registry};
    for (int b = 0; b < warm_buckets; ++b) {
      pipeline.warmup_bucket(util::TimeBucket{b});
    }
    RunOutcome outcome;
    const auto start = util::MinuteTime::from_days(warm_days);
    const auto t0 = Clock::now();
    for (int minute = 15; minute <= eval_hours * 60; minute += 15) {
      const auto report = pipeline.step(start.plus_minutes(minute));
      outcome.blames += static_cast<long>(report.blames.size());
    }
    outcome.wall_ms = ms_since(t0);
    return outcome;
  };

  bench::BenchReport report{"pipeline_throughput"};
  util::TextTable table{{"config", "step wall ms", "quartets/sec", "blames",
                         "speedup vs 1-thread"}};
  const auto qps = [&](const RunOutcome& r) {
    return static_cast<double>(eval_quartets) / (r.wall_ms / 1e3);
  };

  RunOutcome serial;
  for (const int threads : {1, 2}) {
    const auto outcome = run_config(threads);
    if (threads == 1) serial = outcome;
    if (outcome.blames != serial.blames) {
      std::fprintf(stderr,
                   "FATAL: %d-thread run produced %ld blames, 1-thread %ld — "
                   "determinism broken\n",
                   threads, outcome.blames, serial.blames);
      return 1;
    }
    const double vs_serial = serial.wall_ms / outcome.wall_ms;
    char label[32];
    std::snprintf(label, sizeof label, "%d thread%s", threads,
                  threads == 1 ? "" : "s");
    report.add_run(label, outcome.wall_ms, qps(outcome),
                   {{"threads", static_cast<double>(threads)},
                    {"speedup_vs_1thread", vs_serial}});
    table.add_row({label, util::fmt(outcome.wall_ms, 1),
                   util::fmt_count(static_cast<std::uint64_t>(qps(outcome))),
                   std::to_string(outcome.blames), util::fmt(vs_serial, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Observability overhead: the same 2-thread configuration with a live
  // obs::Registry attached (every layer instrumented) vs without. The
  // instruments are resolved-once pointers + relaxed atomics, so this
  // should stay within noise (<2% target).
  {
    const auto plain = run_config(2);
    obs::Registry registry;
    const auto instrumented = run_config(2, &registry);
    if (instrumented.blames != plain.blames) {
      std::fprintf(stderr,
                   "FATAL: registry-attached run produced %ld blames, plain "
                   "%ld — observability must not affect output\n",
                   instrumented.blames, plain.blames);
      return 1;
    }
    const double overhead_pct =
        (instrumented.wall_ms / plain.wall_ms - 1.0) * 100.0;
    std::printf("obs registry overhead (2 threads): plain %.1f ms, "
                "instrumented %.1f ms -> %+.2f%% (target <2%%)\n\n",
                plain.wall_ms, instrumented.wall_ms, overhead_pct);
    report.add_run("2 threads + obs registry", instrumented.wall_ms,
                   qps(instrumented),
                   {{"threads", 2.0}, {"obs_overhead_pct", overhead_pct}});
  }

  report.write();
  return 0;
}

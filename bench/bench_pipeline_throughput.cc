// End-to-end analytics throughput: BlameItPipeline::step() latency for the
// serial step (the pipeline built on a thread pinned to one CPU, as under
// `taskset -c 0`) and for learning beside localize() (built with every
// usable CPU), over identical pre-materialized telemetry so every run
// processes the same quartet stream, then the serial run again with and
// without an obs::Registry attached.
// Results go to stdout and BENCH_pipeline_throughput.json (BenchReport).
// Every configuration's blame count is asserted equal to the serial run's
// — the threading is pure performance (the tests prove it bit-exactly).
//
//   $ ./bench_pipeline_throughput [eval_hours=6] [warm_days=2]
#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
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

  // Runs one full configuration: fresh pipeline (built on a thread pinned
  // to one CPU when `serial`), untimed warmup, timed step() loop at
  // 15-minute cadence over the eval window.
  struct RunOutcome {
    double wall_ms = 0.0;
    long blames = 0;
    bool overlapped = false;
  };
  const auto run_config = [&](bool serial, obs::Registry* registry = nullptr) {
    // Only construction is pinned: it decides whether the pipeline starts
    // its learn helper, and the serial step may then run on any CPU.
    cpu_set_t original;
    CPU_ZERO(&original);
    pthread_getaffinity_np(pthread_self(), sizeof original, &original);
    if (serial) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(core::detail::LearnHelper::allowed_cpus().front(), &one);
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    }
    const auto pipeline = std::make_unique<core::BlameItPipeline>(
        stack->topology.get(), stack->engine.get(), source,
        bench::bench_pipeline_config(), registry);
    pthread_setaffinity_np(pthread_self(), sizeof original, &original);
    for (int b = 0; b < warm_buckets; ++b) {
      pipeline->warmup_bucket(util::TimeBucket{b});
    }
    RunOutcome outcome;
    outcome.overlapped = pipeline->learns_beside_localize();
    const auto start = util::MinuteTime::from_days(warm_days);
    const auto t0 = Clock::now();
    for (int minute = 15; minute <= eval_hours * 60; minute += 15) {
      const auto report = pipeline->step(start.plus_minutes(minute));
      outcome.blames += static_cast<long>(report.blames.size());
    }
    outcome.wall_ms = ms_since(t0);
    return outcome;
  };
  const auto mode = [](const RunOutcome& r) {
    return r.overlapped ? "learn beside localize" : "serial";
  };

  bench::BenchReport report{"pipeline_throughput"};
  util::TextTable table{{"config", "step wall ms", "quartets/sec", "blames",
                         "speedup vs serial"}};
  const auto qps = [&](const RunOutcome& r) {
    return static_cast<double>(eval_quartets) / (r.wall_ms / 1e3);
  };

  RunOutcome serial;
  for (const bool pinned : {true, false}) {
    const auto outcome = run_config(pinned);
    if (pinned) serial = outcome;
    if (outcome.blames != serial.blames) {
      std::fprintf(stderr,
                   "FATAL: %s run produced %ld blames, serial %ld — "
                   "determinism broken\n",
                   mode(outcome), outcome.blames, serial.blames);
      return 1;
    }
    const double vs_serial = serial.wall_ms / outcome.wall_ms;
    report.add_run(mode(outcome), outcome.wall_ms, qps(outcome),
                   {{"learns_beside_localize", outcome.overlapped ? 1.0 : 0.0},
                    {"speedup_vs_serial", vs_serial}});
    table.add_row({mode(outcome), util::fmt(outcome.wall_ms, 1),
                   util::fmt_count(static_cast<std::uint64_t>(qps(outcome))),
                   std::to_string(outcome.blames), util::fmt(vs_serial, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Observability overhead: the serial configuration with a live
  // obs::Registry attached (every layer instrumented) vs without. Serial,
  // because at these bucket sizes the overlapped step's wall time varies
  // up to 3x between runs with the helper's wake-up, which swamps a
  // few-percent effect.
  {
    const auto plain = run_config(true);
    obs::Registry registry;
    const auto instrumented = run_config(true, &registry);
    if (instrumented.blames != plain.blames) {
      std::fprintf(stderr,
                   "FATAL: registry-attached run produced %ld blames, plain "
                   "%ld — observability must not affect output\n",
                   instrumented.blames, plain.blames);
      return 1;
    }
    const double overhead_pct =
        (instrumented.wall_ms / plain.wall_ms - 1.0) * 100.0;
    std::printf("obs registry overhead (%s): plain %.1f ms, instrumented "
                "%.1f ms -> %+.2f%%\n\n",
                mode(plain), plain.wall_ms, instrumented.wall_ms,
                overhead_pct);
    report.add_run(std::string{mode(plain)} + " + obs registry",
                   instrumented.wall_ms, qps(instrumented),
                   {{"obs_overhead_pct", overhead_pct}});
  }

  report.write();
  return 0;
}

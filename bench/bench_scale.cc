// Planetary-scale state-store bench: how the expected-RTT learner and the
// verdict store behave at O(100K) and O(1M) client /24s. Each scale runs in
// a forked child so peak RSS (ru_maxrss) is isolated per scale; the parent
// collects the numbers over a pipe and writes BENCH_scale.json.
//
// Measured per cell:
//   - topology build time at that scale (the 1M generator itself)
//   - verdict publish throughput (records/s over synthesized step reports
//     covering every /24)
//   - learner observe throughput over a fixed synthetic key population, and
//     the once-a-day freeze of its expectation table (one window median per
//     key), beside the learner key count this topology's paths would give
//   - live verdict/learner state bytes (verdict_state_bytes / approx store)
//   - snapshot save and restore wall time + snapshot file size
//   - peak RSS of the whole child
//
// Assertions (exit nonzero on violation):
//   - snapshot restore < 5s at the largest scale
//   - snapshot round trip restores a non-empty verdict store and every
//     learner key (exit 4 otherwise)
//   - optional --rss-ceiling-mb N: every scale stays under N MB
//     (CI runs the 100K scale with this gate)
//
//   $ ./bench_scale [--scales 100000,1000000] [--rss-ceiling-mb N]
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/expected_rtt.h"
#include "bench/common.h"
#include "core/pipeline.h"
#include "net/topology.h"
#include "store/snapshot.h"
#include "svc/verdict_store.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Scale presets: 7 regions x eyeballs x 256 /24s per eyeball; ~100 metros
// via 14 metros/region. eyeballs_per_region = ceil(scale / (7 * 256)).
blameit::net::TopologyConfig scale_topology(std::size_t target_blocks) {
  blameit::net::TopologyConfig cfg;
  cfg.locations_per_region = 2;
  cfg.metros_per_region = 14;  // 98 metros, the paper's "hundreds" order
  cfg.blocks_per_eyeball = 256;
  cfg.blocks_per_prefix = 256;
  cfg.eyeballs_per_region = static_cast<int>(
      (target_blocks + 7 * 256 - 1) / (7 * 256));
  return cfg;
}

struct CellResult {
  std::map<std::string, double> values;  // key -> number, piped to parent
};

// One scale's measurement, run inside the forked child.
CellResult run_cell(std::size_t scale) {
  using namespace blameit;
  CellResult r;

  const auto topo_t0 = Clock::now();
  const auto topology = net::make_topology(scale_topology(scale));
  r.values["topology_build_ms"] = ms_since(topo_t0);
  const auto& blocks = topology->blocks();
  r.values["blocks"] = static_cast<double>(blocks.size());

  // --- Learner: fixed synthetic key population (learner keys scale with
  // locations x paths, not /24s; this exercises the reservoir store without
  // conflating it with the verdict-row scaling below).
  constexpr int kLearnerKeys = 8192;
  constexpr int kLearnerDays = 15;
  constexpr int kSamplesPerDay = 8;
  analysis::ExpectedRttLearner learner{
      analysis::ExpectedRttConfig{.window_days = 14}};
  const auto learn_t0 = Clock::now();
  for (int day = 0; day < kLearnerDays; ++day) {
    for (int key = 0; key < kLearnerKeys; ++key) {
      const analysis::ExpectedRttKey k{(std::uint64_t{1} << 62) |
                                       static_cast<std::uint64_t>(key)};
      for (int s = 0; s < kSamplesPerDay; ++s) {
        learner.observe(k, day, 40.0 + (key % 50) + s);
      }
    }
  }
  const double learn_ms = ms_since(learn_t0);
  r.values["learner_observe_per_sec"] =
      1000.0 * kLearnerKeys * kLearnerDays * kSamplesPerDay / learn_ms;
  const auto freeze_t0 = Clock::now();
  learner.freeze_day(kLearnerDays);
  r.values["learner_freeze_ms"] = ms_since(freeze_t0);
  // A cloud and a middle key per device for every ⟨home location, path⟩.
  std::set<std::pair<std::uint16_t, std::uint32_t>> paths;
  for (const auto& cb : blocks) {
    for (const auto loc : topology->home_locations(cb.block)) {
      if (const auto* route = topology->routing().route_for(
              loc, cb.block, util::MinuteTime{0})) {
        paths.emplace(loc.value, route->middle.value);
      }
    }
  }
  r.values["learner_path_keys"] = static_cast<double>(
      net::kAllDeviceClasses.size() *
      (paths.size() + topology->locations().size()));

  // --- Verdict store: synthesized step reports covering every /24 once per
  // step (the "every client block has a live verdict" worst case).
  svc::VerdictStore store{svc::VerdictStore::Config{
      .shards = 8, .verdict_retention_buckets = 12}};
  constexpr int kSteps = 3;
  std::size_t records = 0;
  const auto publish_t0 = Clock::now();
  for (int s = 0; s < kSteps; ++s) {
    core::StepReport report;
    const util::TimeBucket bucket{100 + s};
    report.now = bucket.next().start();
    report.blames.reserve(blocks.size());
    for (const auto& cb : blocks) {
      core::BlameResult b;
      b.quartet.key.block = cb.block;
      b.quartet.key.location = topology->home_locations(cb.block).front();
      b.quartet.key.bucket = bucket;
      b.quartet.middle = net::MiddleSegmentId{cb.block.block % 97};
      b.quartet.client_as = cb.client_as;
      b.quartet.mean_rtt_ms = 80.0 + (cb.block.block % 40);
      b.quartet.sample_count = 20;
      b.blame = core::Blame::Middle;
      report.blames.push_back(std::move(b));
      ++records;
    }
    store.publish(report);
  }
  const double publish_ms = ms_since(publish_t0);
  r.values["verdict_records_per_sec"] = 1000.0 * records / publish_ms;
  r.values["verdict_state_bytes"] =
      static_cast<double>(store.verdict_state_bytes());

  // --- Snapshot round trip (learner + verdicts in one file).
  const std::string snap_path =
      "/tmp/bench_scale_" + std::to_string(::getpid()) + ".snap";
  const auto save_t0 = Clock::now();
  {
    store::SnapshotWriter writer;
    learner.save_state(writer);
    store.save_state(writer);
    writer.write_file(snap_path);
  }
  r.values["snapshot_save_ms"] = ms_since(save_t0);

  analysis::ExpectedRttLearner learner2{
      analysis::ExpectedRttConfig{.window_days = 14}};
  svc::VerdictStore store2{svc::VerdictStore::Config{
      .shards = 8, .verdict_retention_buckets = 12}};
  const auto load_t0 = Clock::now();
  {
    const auto reader = store::SnapshotReader::from_file(snap_path);
    learner2.restore_state(reader);
    store2.restore_state(reader);
  }
  r.values["snapshot_restore_ms"] = ms_since(load_t0);
  std::remove(snap_path.c_str());

  // Restore sanity: same live rows, same epoch.
  if (store2.verdict_state_bytes() == 0 && records > 0) {
    std::fprintf(stderr, "restore produced an empty verdict store\n");
    std::exit(4);
  }
  if (learner2.tracked_keys() != learner.tracked_keys()) {
    std::fprintf(stderr, "restore lost learner keys (%zu != %zu)\n",
                 learner2.tracked_keys(), learner.tracked_keys());
    std::exit(4);
  }

  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  r.values["peak_rss_mb"] =
      static_cast<double>(usage.ru_maxrss) / 1024.0;  // linux: KiB
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blameit;

  std::vector<std::size_t> scales{100'000, 1'000'000};
  double rss_ceiling_mb = 0.0;  // 0 = no gate
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scales") == 0 && i + 1 < argc) {
      scales.clear();
      for (const char* p = argv[++i]; *p != '\0';) {
        scales.push_back(static_cast<std::size_t>(std::strtoull(p, nullptr, 10)));
        p = std::strchr(p, ',');
        if (!p) break;
        ++p;
      }
    } else if (std::strcmp(argv[i], "--rss-ceiling-mb") == 0 && i + 1 < argc) {
      rss_ceiling_mb = std::atof(argv[++i]);
    }
  }

  bench::header("state-store scale at 100K/1M /24s",
                "§2.1 Azure-scale telemetry; memory-bounded learner/verdict "
                "state with snapshot restart");

  std::map<std::size_t, std::map<std::string, double>> cells;  // by scale

  for (const std::size_t scale : scales) {
    int fds[2];
    if (pipe(fds) != 0) {
      std::perror("pipe");
      return 1;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      close(fds[0]);
      const CellResult r = run_cell(scale);
      std::string out;
      for (const auto& [key, value] : r.values) {
        out += key + "=" + std::to_string(value) + "\n";
      }
      const char* data = out.c_str();
      std::size_t left = out.size();
      while (left > 0) {
        const ssize_t n = write(fds[1], data, left);
        if (n <= 0) _exit(5);
        data += n;
        left -= static_cast<std::size_t>(n);
      }
      close(fds[1]);
      _exit(0);
    }
    close(fds[1]);
    std::string payload;
    char buf[4096];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) > 0) {
      payload.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "cell %zu failed (status %d)\n", scale, status);
      return 1;
    }
    auto& cell = cells[scale];
    std::size_t pos = 0;
    while (pos < payload.size()) {
      const std::size_t eq = payload.find('=', pos);
      const std::size_t nl = payload.find('\n', pos);
      if (eq == std::string::npos || nl == std::string::npos) break;
      cell[payload.substr(pos, eq - pos)] = std::atof(payload.c_str() + eq + 1);
      pos = nl + 1;
    }
    std::printf(
        "  %8zu /24s  rss=%7.1f MB  verdicts=%.0f rec/s  store=%6.1f MB  "
        "save=%6.1f ms  restore=%6.1f ms  freeze=%5.1f ms (%.0f path keys)\n",
        scale, cell["peak_rss_mb"], cell["verdict_records_per_sec"],
        cell["verdict_state_bytes"] / (1024.0 * 1024.0),
        cell["snapshot_save_ms"], cell["snapshot_restore_ms"],
        cell["learner_freeze_ms"], cell["learner_path_keys"]);
  }

  bench::BenchReport report{"scale"};
  for (const auto& [scale, cell] : cells) {
    std::vector<std::pair<std::string, double>> extra;
    for (const auto& [name, value] : cell) {
      if (name != "verdict_records_per_sec") extra.emplace_back(name, value);
    }
    report.add_run(std::to_string(scale), 0.0,
                   cell.count("verdict_records_per_sec")
                       ? cell.at("verdict_records_per_sec")
                       : 0.0,
                   std::move(extra));
  }
  report.write();

  // --- Gates ---
  int violations = 0;
  const std::size_t top = *std::max_element(scales.begin(), scales.end());
  if (cells[top].at("snapshot_restore_ms") >= 5000.0) {
    std::fprintf(stderr, "GATE: snapshot restore %.0f ms >= 5s at %zu\n",
                 cells[top].at("snapshot_restore_ms"), top);
    ++violations;
  }
  if (rss_ceiling_mb > 0.0) {
    for (const auto& [scale, cell] : cells) {
      if (cell.at("peak_rss_mb") > rss_ceiling_mb) {
        std::fprintf(stderr,
                     "GATE: peak RSS %.1f MB > ceiling %.1f MB at %zu /24s\n",
                     cell.at("peak_rss_mb"), rss_ceiling_mb, scale);
        ++violations;
      }
    }
  }
  if (violations > 0) {
    std::fprintf(stderr, "%d gate violation(s)\n", violations);
    return 1;
  }
  std::puts("all gates passed");
  return 0;
}

// The three workloads of the end-to-end benchmark (see README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bench_e2e {

inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr int kDefaultSeconds = 10;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  /// Sizes the replay: each workload replays a step count derived from it,
  /// so the measured part of a run takes about this long on a 4-core box.
  int seconds = kDefaultSeconds;
  /// 1: run untraced, then traced; report the per-layer metrics.
  bool trace = false;
  /// Small topology and few steps, for the self-tests.
  bool tiny = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// The registry no longer exports the value this metric is read from.
  bool missing = false;
};

struct RunReport {
  bool correct = true;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload and returns its metrics: the end-to-end set when
/// untraced, the per-layer set when traced. Prints detail lines (sample
/// counts, ladder, layer breakdown) to stdout as it goes. Throws
/// std::invalid_argument for an unknown workload.
[[nodiscard]] RunReport run_workload(const Options& options);

}  // namespace bench_e2e

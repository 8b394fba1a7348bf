// Percentiles for the benchmark's timings. A timing is reported as its
// median plus a tail percentile; the tail is trusted only when at least ten
// samples lie beyond it, and the sample counts are printed beside it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace bench_e2e {

/// 1-based nearest rank of the p-th percentile among n samples
/// (ceil(p/100 * n), at least 1). p is in (0, 100].
inline std::size_t percentile_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps exact products such as 90% of 100 from rounding up.
  const double raw = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  const auto rank = static_cast<std::size_t>(std::max(raw, 1.0));
  return std::min(rank, n);
}

/// Samples strictly above the p-th percentile's rank.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - percentile_rank(n, p);
}

/// The rule for reporting a tail percentile: ten samples beyond it.
inline bool tail_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

/// Nearest-rank percentile of ascending `sorted`; 0 when empty.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[percentile_rank(sorted.size(), p) - 1];
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_p = 0.0;  ///< the requested tail percentile
  double tail = 0.0;
  std::size_t beyond = 0;  ///< samples beyond the tail
  bool supported = false;  ///< beyond >= 10
  double mean = 0.0;
  double max = 0.0;
};

inline Summary summarize(std::vector<double> samples, double tail_p) {
  Summary s;
  s.n = samples.size();
  s.tail_p = tail_p;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 50.0);
  s.tail = percentile_sorted(samples, tail_p);
  s.beyond = samples_beyond(s.n, tail_p);
  s.supported = s.beyond >= 10;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  s.max = samples.back();
  return s;
}

/// Median of a handful of repeated measurements (e.g. set-up times).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace bench_e2e

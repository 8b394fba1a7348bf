// The end-to-end benchmark's command line.
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--spans FILE]
//
// Prints detail lines (sample counts, ladder, layer breakdown), then, as
// the last line, one JSON object:
//   {"correct": true, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad
// usage.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>

#include "util/json.h"
#include "workload.h"

namespace {

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "stream_ingest|wide_analytics|serve_mixed [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench_e2e::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      if (!parse_number(argv[++i], options.seed)) return usage("bad --seed");
    } else if (arg == "--seconds" && has_value) {
      if (!parse_number(argv[++i], options.seconds) || options.seconds < 1 ||
          options.seconds > 3600) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace" && has_value) {
      const std::string_view value = argv[++i];
      if (value != "0" && value != "1") return usage("bad --trace");
      options.trace = value == "1";
    } else if (arg == "--spans" && has_value) {
      options.spans_path = argv[++i];
    } else {
      return usage(("unknown argument " + std::string{arg}).c_str());
    }
  }
  bool known = false;
  for (const auto& name : bench_e2e::workload_names()) {
    known = known || name == options.workload;
  }
  if (!known) return usage("unknown or missing --workload");

  bench_e2e::RunReport report;
  try {
    report = bench_e2e::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }

  std::printf("%s metrics:\n", options.trace ? "per-layer" : "end-to-end");
  for (const auto& m : report.metrics) {
    std::printf("  %-32s %.6g %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.missing ? "  MISSING from the registry" : "");
  }
  blameit::util::json::Writer w;
  w.begin_object()
      .member("correct", report.correct)
      .member("attempted", report.attempted)
      .member("failed", report.failed);
  w.key("metrics").begin_object();
  for (const auto& m : report.metrics) {
    w.key(m.name).begin_object().member("value", m.value);
    w.member("unit", m.unit).end_object();
  }
  w.end_object().end_object();
  std::printf("%s\n", w.str().c_str());
  return report.correct ? 0 : 1;
}

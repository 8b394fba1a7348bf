// Self-tests of the benchmark's own arithmetic and plumbing: percentiles
// and the ten-beyond rule, span self times and the layer breakdown, the
// open-loop schedule and its lateness accounting, the load generator
// against a live server (its JSON body check included), and a tiny run of
// every workload.
//
//   python3 bench_e2e/run.py --self-test
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "layers.h"
#include "loadgen.h"
#include "stats.h"
#include "svc/http.h"
#include "trace.h"
#include "workload.h"

namespace {

using namespace bench_e2e;

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL selftest.cc:%d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void test_percentiles() {
  CHECK(percentile_rank(100, 90.0) == 90);
  CHECK(samples_beyond(100, 90.0) == 10);
  CHECK(tail_supported(100, 90.0));
  CHECK(!tail_supported(99, 90.0));  // 9 beyond
  CHECK(samples_beyond(1000, 99.0) == 10);
  CHECK(tail_supported(1000, 99.0));
  CHECK(!tail_supported(999, 99.0));
  CHECK(percentile_rank(1, 50.0) == 1);
  CHECK(percentile_rank(0, 50.0) == 0);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const Summary s = summarize(v, 90.0);
  CHECK(s.n == 100);
  CHECK(near(s.p50, 50.0));
  CHECK(near(s.tail, 90.0));
  CHECK(s.beyond == 10 && s.supported);
  CHECK(near(s.mean, 50.5) && near(s.max, 100.0));
  v.pop_back();  // 99 samples: the p90 tail loses its tenth sample beyond
  const Summary short_tail = summarize(v, 90.0);
  CHECK(short_tail.n == 99 && short_tail.beyond == 9 && !short_tail.supported);
  CHECK(summarize({}, 99.0).n == 0);

  CHECK(near(median({3.0, 1.0, 2.0}), 2.0));
  CHECK(near(median({4.0, 1.0, 3.0, 2.0}), 2.5));
  CHECK(near(median({}), 0.0));
}

void test_spans() {
  // One step, times in ms (as ns * 1e6): the benchmark's span tree.
  Tracer t{true};
  constexpr std::int64_t ms = 1'000'000;
  const int step = t.intern(kSpanStep);
  t.add(step, 1, -1, 0, 1000 * ms);
  t.add(t.intern(kSpanSubmit), 1, 0, 0, 300 * ms);
  t.add(t.intern(kSpanPipelineStep), 1, 0, 300 * ms, 900 * ms);
  t.add(t.intern(kSpanSource), 1, 2, 310 * ms, 500 * ms);
  t.add(t.intern(kSpanDrain), 1, 3, 310 * ms, 400 * ms);
  t.add(t.intern(kSpanTake), 1, 3, 400 * ms, 480 * ms);
  t.add(t.intern(kSpanPublish), 1, 0, 900 * ms, 990 * ms);

  const auto self = self_times(t.spans());
  CHECK(self[0] == 10 * ms);   // loop: 1000 - 300 - 600 - 90
  CHECK(self[1] == 300 * ms);  // submit
  CHECK(self[2] == 410 * ms);  // step: 600 - 190
  CHECK(self[3] == 20 * ms);   // source: 190 - 90 - 80
  std::int64_t sum = 0;
  for (const auto v : self) sum += v;
  CHECK(sum == 1000 * ms);  // self times add up to the root

  const StageSums stages{.learn_ms = 100.0,
                         .localize_ms = 200.0,
                         .active_ms = 50.0,
                         .background_ms = 20.0};
  const LayerTimes layers = layer_times(totals_by_name(t), stages);
  CHECK(near(layers.window_ms, 1000.0));
  CHECK(near(layers.step_residual_ms, 600.0 - 190.0 - 370.0));
  CHECK(near(layers.loop_residual_ms, 10.0));
  double rows = 0.0;
  for (const auto& row : layers.rows()) rows += row.ms;
  CHECK(near(rows, layers.window_ms));  // the breakdown partitions the window

  // Children are clipped to their parent, and overlapping children count
  // once.
  Tracer clip{true};
  const int a = clip.intern("a");
  clip.add(a, 0, -1, 0, 100);
  clip.add(a, 0, 0, 50, 150);
  clip.add(a, 1, -1, 0, 100);
  clip.add(a, 1, 2, 10, 40);
  clip.add(a, 1, 2, 30, 60);
  const auto clipped = self_times(clip.spans());
  CHECK(clipped[0] == 50);
  CHECK(clipped[2] == 50);

  // Nested scoped spans take the innermost open span as parent; a disabled
  // tracer records nothing.
  Tracer nested{true};
  const int n = nested.intern("n");
  {
    const ScopedSpan outer{nested, n, 7};
    const ScopedSpan inner{nested, n, 7};
  }
  CHECK(nested.spans().size() == 2);
  CHECK(nested.spans()[1].parent == 0 && nested.spans()[0].parent == -1);
  CHECK(nested.spans()[1].group == 7);
  Tracer off{false};
  { const ScopedSpan span{off, off.intern("x"), 1}; }
  CHECK(off.spans().empty());
}

void test_schedule() {
  const OpenLoopSchedule s{1000.0, 5, 1'000'000};
  CHECK(s.due_ns(0) == 1'000'000);
  CHECK(s.due_ns(1) == 2'000'000);

  PhaseResult r;
  r.outcomes = {{.due_ns = 0, .sent_ns = 2'000'000, .done_ns = 3'000'000},
                {.due_ns = 1'000'000, .sent_ns = 1'000'000,
                 .done_ns = 1'500'000},
                {.due_ns = 2'000'000}};  // never sent
  const auto late = r.lateness_ms();
  CHECK(late.size() == 2 && near(late[0], 2.0) && near(late[1], 0.0));
  const auto lat = r.latencies_us();
  CHECK(lat.size() == 2 && near(lat[0], 3000.0) && near(lat[1], 500.0));

  CHECK(status_ok(QueryKind::Verdict, 200));
  CHECK(status_ok(QueryKind::Miss, 404));
  CHECK(!status_ok(QueryKind::Verdict, 500));
  CHECK(status_ok(QueryKind::Incidents, 200));
  CHECK(!status_ok(QueryKind::Incidents, 404));
}

Query get(QueryKind kind, const std::string& path) {
  return Query{kind, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n"};
}

void test_loadgen_live() {
  blameit::svc::HttpServer server{
      [](const blameit::svc::HttpRequest& req) {
        using blameit::svc::HttpResponse;
        if (req.path == "/ok") return HttpResponse::json(200, R"({"ok":1})");
        if (req.path == "/bad") return HttpResponse::json(200, "not json");
        if (req.path == "/err") return HttpResponse::json(500, "{}");
        return HttpResponse::json(404, "{}");
      },
      blameit::svc::HttpServerConfig{.workers = 2}};
  CHECK(server.start());
  const auto run = [&](const std::vector<Query>& queries, std::size_t n) {
    const OpenLoopSchedule schedule{2000.0, n, now_ns() + 5'000'000};
    return run_open_loop(server.port(), 2, queries, schedule, 2'000'000'000);
  };

  const auto good = run({get(QueryKind::Verdict, "/ok"),
                         get(QueryKind::Miss, "/missing"),
                         get(QueryKind::Incidents, "/ok")},
                        300);
  CHECK(good.outcomes.size() == 300);
  CHECK(good.failed == 0);
  CHECK(good.json_checked == 200);  // the two 200s of every three
  CHECK(good.latencies_us().size() == 300);
  CHECK(summarize(good.lateness_ms(), 99.0).tail < 50.0);

  const auto bad = run({get(QueryKind::Verdict, "/err"),
                        get(QueryKind::Verdict, "/bad"),
                        get(QueryKind::Incidents, "/missing")},
                       30);
  CHECK(bad.failed == 30);
  CHECK(bad.bad_status == 20 && bad.bad_json == 10);
  server.stop();
}

void test_tiny_workloads() {
  const std::set<std::string> end_to_end = {
      "setup_s",          "throughput_sim_min_per_s",
      "verdict_lag_p50_ms", "verdict_lag_p90_ms",
      "query_p50_us",     "query_ok_ratio",
      "peak_rss_mb",      "probes_per_sim_hour",
      "incident_accuracy"};
  for (const auto& name : workload_names()) {
    for (const bool traced : {false, true}) {
      Options options;
      options.workload = name;
      options.seed = 7;
      options.tiny = true;
      options.trace = traced;
      const RunReport report = run_workload(options);
      check(report.correct, name.c_str(), __LINE__);
      check(report.attempted > 0 && report.failed == 0, name.c_str(),
            __LINE__);
      std::set<std::string> names;
      for (const auto& m : report.metrics) {
        names.insert(m.name);
        check(!m.unit.empty() && !m.missing, m.name.c_str(), __LINE__);
      }
      check(names.size() == report.metrics.size(), "unique names", __LINE__);
      if (!traced) {
        check(names == end_to_end, name.c_str(), __LINE__);
        for (const auto& m : report.metrics) {
          check(m.value > 0.0, m.name.c_str(), __LINE__);
        }
      } else {
        check(names.size() == 33, name.c_str(), __LINE__);
      }
    }
  }
}

}  // namespace

int main() {
  test_percentiles();
  test_spans();
  test_schedule();
  test_loadgen_live();
  test_tiny_workloads();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d self-test check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all self-tests passed\n");
  return 0;
}

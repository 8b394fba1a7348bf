// Open-loop HTTP load generator for the verdict service.
//
// One thread sends every request at its scheduled time, whether or not
// earlier ones were answered (independent operators querying the service),
// over a fixed set of keep-alive loopback connections with HTTP/1.1
// pipelining. Latency is timed from each request's *scheduled* send time,
// so a stall also charges the requests queued behind it, and the
// generator's own lateness (actual minus scheduled send) is reported: a
// phase whose generator fell behind says nothing about the server.
//
// Never open more connections than HttpServerConfig::workers — a worker
// serves one connection until it closes, so an extra connection would sit
// unserved and its wait would be measured as latency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bench_e2e {

enum class QueryKind : std::uint8_t { Verdict, Miss, Incidents };

struct Query {
  QueryKind kind = QueryKind::Verdict;
  std::string wire;  ///< the full request bytes
  /// The ⟨/24, cloud location⟩ a verdict query asks about (0 otherwise).
  std::uint32_t block = 0;
  std::uint16_t location = 0;
};

/// Request i of a phase is due at start + i / rate.
struct OpenLoopSchedule {
  double rate_per_s = 1000.0;
  std::size_t count = 0;
  std::int64_t start_ns = 0;

  [[nodiscard]] std::int64_t due_ns(std::size_t i) const {
    return start_ns +
           static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                     rate_per_s);
  }
};

/// Outcome of one request. Times are steady-clock ns; done_ns is 0 when
/// the request never completed.
struct QueryOutcome {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  int status = 0;
  bool ok = false;
};

struct PhaseResult {
  std::vector<QueryOutcome> outcomes;  ///< one per scheduled request
  std::size_t failed = 0;
  std::size_t transport_errors = 0;
  std::size_t timeouts = 0;
  std::size_t bad_status = 0;
  std::size_t bad_json = 0;
  std::size_t json_checked = 0;  ///< 200 bodies validated

  /// done - due per completed request, in microseconds.
  [[nodiscard]] std::vector<double> latencies_us() const;
  /// sent - due per sent request, in milliseconds.
  [[nodiscard]] std::vector<double> lateness_ms() const;
};

/// Is `status` an acceptable answer to a query of this kind? /v1/verdict
/// answers 200 or 404 (no live verdict); /v1/incidents answers 200.
[[nodiscard]] bool status_ok(QueryKind kind, int status);

/// Runs one open-loop phase: connects `connections` sockets to
/// 127.0.0.1:port, sends queries[i % queries.size()] at schedule.due_ns(i),
/// and returns when every request completed, failed, or timed out.
/// Blocking; call from the one load-generator thread.
[[nodiscard]] PhaseResult run_open_loop(std::uint16_t port, int connections,
                                        const std::vector<Query>& queries,
                                        const OpenLoopSchedule& schedule,
                                        std::int64_t timeout_ns);

}  // namespace bench_e2e

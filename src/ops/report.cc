#include "ops/report.h"

#include <ostream>
#include <sstream>

#include "util/table.h"

namespace blameit::ops {

std::string render_step(const core::StepReport& report,
                        const net::Topology& topology) {
  std::ostringstream oss;
  oss << "[" << util::to_string(report.now) << "] blames:";
  for (const auto blame : core::kAllBlames) {
    const int n = report.count(blame);
    if (n > 0) oss << ' ' << core::to_string(blame) << '=' << n;
  }
  if (report.blames.empty()) oss << " none";
  oss << " | probes: on-demand=" << report.on_demand_probes
      << " background=" << report.background_probes;
  if (report.active_retries > 0) {
    oss << " (retries=" << report.active_retries << ")";
  }
  if (report.degraded_passive_only) {
    oss << " | DEGRADED: engine outage, passive-only";
  }
  const auto& st = report.stages;
  const double residual = st.total_ms - st.source_ms - st.learn_ms -
                          st.localize_ms - st.active_ms - st.background_ms;
  oss << " | stages(ms): source=" << util::fmt(st.source_ms, 2)
      << " learn=" << util::fmt(st.learn_ms, 2)
      << " localize=" << util::fmt(st.localize_ms, 2)
      << " active=" << util::fmt(st.active_ms, 2)
      << " background=" << util::fmt(st.background_ms, 2)
      << " residual=" << util::fmt(residual, 2)
      << " total=" << util::fmt(st.total_ms, 2);
  if (!report.ranked_issues.empty()) {
    const auto& top = report.ranked_issues.front();
    oss << " | top issue: " << topology.location(top.location).name << " via "
        << topology.interner().describe(top.middle)
        << " (client-time " << util::fmt(top.client_time_product, 1) << ")";
  }
  for (const auto& diag : report.diagnoses) {
    if (diag.culprit) {
      const auto* info = topology.registry().find(*diag.culprit);
      oss << "\n  culprit: " << diag.culprit->to_string();
      if (info) oss << " (" << info->name << ")";
      oss << " +" << util::fmt(diag.culprit_increase_ms, 1) << "ms"
          << " [confidence=" << core::to_string(diag.confidence);
      if (!diag.have_baseline) oss << ", no baseline";
      if (diag.baseline_stale) oss << ", stale baseline";
      if (diag.truncated) oss << ", partial path";
      oss << "]";
    } else if (diag.coarse_middle) {
      oss << "\n  culprit: middle segment (AS unresolved past truncation)"
          << " [confidence=" << core::to_string(diag.confidence) << "]";
    }
  }
  return oss.str();
}

std::string render_ingest(const ingest::IngestStats& stats) {
  std::ostringstream oss;
  oss << "ingest: in=" << stats.records_in << " out=" << stats.records_out
      << " quartets=" << stats.quartets_finalized;
  oss << " | dropped: late=" << stats.late_dropped
      << " unknown=" << stats.unknown_dropped
      << " min-samples=" << stats.min_samples_dropped
      << " closed=" << stats.closed_dropped;
  oss << " | rings: shards=" << stats.shards.size()
      << " high-water=" << stats.ring_high_water
      << " producer-parks=" << stats.backpressure_waits;
  std::uint64_t finalize_ns = 0;
  std::uint64_t buckets = 0;
  std::uint64_t consumer_parks = 0;
  for (const auto& shard : stats.shards) {
    finalize_ns += shard.finalize_ns_total;
    buckets += shard.buckets_finalized;
    consumer_parks += shard.consumer_parks;
  }
  oss << " consumer-parks=" << consumer_parks;
  if (buckets > 0) {
    oss << " | finalize: " << util::fmt(
               static_cast<double>(finalize_ns) /
                   static_cast<double>(buckets) / 1e3,
               1)
        << "us/bucket";
  }
  return oss.str();
}

std::string render_ticket(const Ticket& ticket,
                          const net::Topology& topology) {
  std::ostringstream oss;
  oss << ticket.id << " [" << to_string(ticket.team) << "] "
      << core::to_string(ticket.category) << " @ "
      << topology.location(ticket.location).name
      << " impact=" << util::fmt(ticket.impact, 1) << " : " << ticket.summary;
  return oss.str();
}

void print_step(std::ostream& os, const core::StepReport& report,
                const net::Topology& topology) {
  os << render_step(report, topology) << '\n';
}

}  // namespace blameit::ops

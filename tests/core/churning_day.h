// The overnight run that the serial-vs-overlapped parity tests compare: one
// pipeline stepped from day 2 18:00 to day 3 06:00 with every churn knob on,
// saved at day 3 03:00 and restored into a new pipeline that finishes the
// run.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "analysis/quartet.h"
#include "core/pipeline.h"
#include "obs/registry.h"
#include "one_cpu.h"
#include "sim/chaos.h"
#include "sim/scenario.h"
#include "sim/telemetry.h"
#include "store/snapshot.h"

namespace blameit::core {

/// Snapshot bytes of a churning day at its restart and at its end.
struct ChurningDaySnapshots {
  std::string restart;
  std::string end;
  bool operator==(const ChurningDaySnapshots&) const = default;
};

/// Runs the day on a topology of its own, since the incidents rewrite its
/// routes: a flap storm in Europe drives baseline transfers, a re-steer from
/// East Asia opens steer shields, and an Indian transit fault is probed, and
/// back-filled where its path has no baseline. Crossing midnight re-freezes
/// the learner's day table inside a step. `serial` builds both pipelines
/// pinned to one CPU and fails the test if either starts the learn helper.
/// `chaos` reaches the traceroute engine and the churn feed; `on_step` sees
/// every report.
inline ChurningDaySnapshots run_churning_day(
    bool serial, const sim::ChaosConfig& chaos,
    obs::Registry* registry,
    const std::function<void(const StepReport&)>& on_step) {
  net::TopologyConfig topology;
  topology.locations_per_region = 1;
  topology.eyeballs_per_region = 3;
  topology.blocks_per_eyeball = 16;
  const auto topo = net::make_topology(topology);
  sim::FaultInjector faults;
  sim::TelemetryGenerator generator{topo.get(), &faults};
  sim::RttModel model{topo.get(), &faults};
  sim::ChaosInjector injector{chaos};
  sim::TracerouteEngine engine{topo.get(), &model, sim::TracerouteConfig{},
                               chaos.enabled() ? &injector : nullptr};

  sim::Incident storm;
  storm.name = "storm";
  storm.kind = sim::FaultKind::MiddleAs;
  storm.region = net::Region::Europe;
  storm.start = util::MinuteTime::from_day_hour(2, 19);
  storm.duration_minutes = 9 * 60;
  storm.added_ms = 40.0;
  storm.disruption = sim::RouteDisruption::FlapStorm;
  storm.flap_period_minutes = 60;
  sim::resolve_route_disruption(*topo, storm);
  sim::Incident steer;
  steer.name = "steer";
  steer.kind = sim::FaultKind::MiddleAs;
  steer.region = net::Region::EastAsia;
  steer.via_override = true;
  steer.override_to = topo->locations_in(net::Region::UnitedStates).front();
  steer.start = util::MinuteTime::from_day_hour(2, 22);
  steer.duration_minutes = 4 * 60;
  sim::apply_incidents({storm, steer},
                       sim::ApplyTargets{.injector = &faults,
                                         .generator = &generator,
                                         .topology = topo.get()});
  const auto transits = sim::non_dominant_transits(*topo, net::Region::India);
  if (!transits.empty()) {
    faults.add(sim::Fault{.kind = sim::FaultKind::MiddleAs,
                          .as = transits.front(),
                          .added_ms = 120.0,
                          .start = util::MinuteTime::from_day_hour(2, 20),
                          .duration_minutes = 8 * 60});
  }

  BlameItConfig cfg;
  cfg.expected_rtt_window_days = 2;
  cfg.churn_baseline_transfer = true;
  cfg.churn_steer_shield = true;
  cfg.probe_on_no_baseline = true;
  const auto source = [&](util::TimeBucket bucket) {
    analysis::QuartetBuilder builder{topo.get(),
                                     analysis::BadnessThresholds{}};
    generator.generate_aggregates(
        bucket, [&](const analysis::QuartetKey& k, int n, double mean) {
          builder.add_aggregate(k, n, mean);
        });
    return builder.take_bucket(bucket);
  };
  const auto make = [&] {
    std::optional<PinnedToOneCpu> pin;
    if (serial) pin.emplace();
    auto pipeline = std::make_unique<BlameItPipeline>(topo.get(), &engine,
                                                      source, cfg, registry);
    if (serial) {
      EXPECT_FALSE(pipeline->learns_beside_localize())
          << "the serial leg started the learn helper";
    }
    return pipeline;
  };
  const auto save = [](const BlameItPipeline& pipeline) {
    store::SnapshotWriter writer;
    pipeline.save_snapshot(writer);
    return writer.serialize();
  };

  auto pipeline = make();
  for (int b = 0; b < 2 * util::kBucketsPerDay; ++b) {
    pipeline->warmup_bucket(util::TimeBucket{b});
  }
  ChurningDaySnapshots snapshots;
  for (auto now = util::MinuteTime::from_day_hour(2, 18).plus_minutes(15);
       now <= util::MinuteTime::from_day_hour(3, 6);
       now = now.plus_minutes(15)) {
    on_step(pipeline->step(now));
    if (now == util::MinuteTime::from_day_hour(3, 3)) {
      snapshots.restart = save(*pipeline);
      pipeline = make();
      pipeline->restore_snapshot(
          store::SnapshotReader::from_bytes(snapshots.restart, "<restart>"));
    }
  }
  snapshots.end = save(*pipeline);
  return snapshots;
}

}  // namespace blameit::core

// Per-layer times of the traced replay: the benchmark's spans around its
// calls into each module, plus the stage timings the pipeline reports in
// StepReport. Every row is a self time, so the rows add up to the timed
// window, and the part no layer claims is shown as a residual.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace bench_e2e {

// Span names the replay records; each step is one replay.step tree:
//   replay.step
//     ingest.submit              records handed to IngestEngine + watermark
//     core.step                  BlameItPipeline::step
//       core.source              the benchmark's QuartetSource
//         ingest.drain           IngestEngine::flush
//         ingest.take            IngestEngine::take_bucket
//     svc.publish                VerdictStore::publish
inline constexpr const char* kSpanStep = "replay.step";
inline constexpr const char* kSpanSubmit = "ingest.submit";
inline constexpr const char* kSpanPipelineStep = "core.step";
inline constexpr const char* kSpanSource = "core.source";
inline constexpr const char* kSpanDrain = "ingest.drain";
inline constexpr const char* kSpanTake = "ingest.take";
inline constexpr const char* kSpanPublish = "svc.publish";

/// StepReport::StageTimings summed over the timed steps, in ms.
struct StageSums {
  double learn_ms = 0.0;
  double localize_ms = 0.0;
  double active_ms = 0.0;
  double background_ms = 0.0;
};

struct LayerRow {
  const char* name;
  double ms;
};

struct LayerTimes {
  double submit_ms = 0.0;
  double drain_ms = 0.0;
  double take_ms = 0.0;
  double source_ms = 0.0;  ///< whole QuartetSource time, drain + take included
  double step_ms = 0.0;    ///< whole BlameItPipeline::step time
  double publish_ms = 0.0;
  StageSums stages;
  /// Step time outside the source and the pipeline's own stage timers.
  double step_residual_ms = 0.0;
  /// replay.step time outside submit, step and publish (the loop itself).
  double loop_residual_ms = 0.0;
  double window_ms = 0.0;  ///< total of the replay.step spans

  /// Self times that partition the window.
  [[nodiscard]] std::vector<LayerRow> rows() const {
    return {
        {"ingest.submit_ms (submit + watermark)", submit_ms},
        {"ingest.drain_ms (flush)", drain_ms},
        {"ingest.take_ms (take_bucket)", take_ms},
        {"core.source_ms self (handover)", source_ms - drain_ms - take_ms},
        {"analysis.learn_ms", stages.learn_ms},
        {"core.localize_ms", stages.localize_ms},
        {"core.active_ms", stages.active_ms},
        {"core.background_ms", stages.background_ms},
        {"core.step_residual_ms", step_residual_ms},
        {"svc.publish_ms", publish_ms},
        {"bench.unattributed_ms (loop)", loop_residual_ms},
    };
  }
};

inline LayerTimes layer_times(const std::map<std::string, NameTotals>& spans,
                              const StageSums& stages) {
  const auto find = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? NameTotals{} : it->second;
  };
  const auto total = [&](const char* name) { return find(name).total_ms; };
  LayerTimes t;
  t.submit_ms = total(kSpanSubmit);
  t.drain_ms = total(kSpanDrain);
  t.take_ms = total(kSpanTake);
  t.source_ms = total(kSpanSource);
  t.step_ms = total(kSpanPipelineStep);
  t.publish_ms = total(kSpanPublish);
  t.stages = stages;
  t.step_residual_ms = t.step_ms - t.source_ms - stages.learn_ms -
                       stages.localize_ms - stages.active_ms -
                       stages.background_ms;
  t.window_ms = total(kSpanStep);
  t.loop_residual_ms = find(kSpanStep).self_ms;
  return t;
}

}  // namespace bench_e2e

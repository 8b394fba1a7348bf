// Algorithm 1 — coarse-grained fault localization from passive RTT data.
//
// Hierarchical elimination over one 5-minute bucket of quartets: start with
// the cloud node (richest aggregate), fall through to the middle BGP path,
// then the client, emitting "insufficient" when a group is too thin and
// "ambiguous" when the same /24 simultaneously saw good RTT at another
// location. Bad fractions compare against the *learned* expected RTTs
// (14-day medians), not the badness thresholds — §4.3 explains why.
//
// Parallel design (config.analytics_threads > 1): quartets are partitioned
// by cloud location across a util::ThreadPool.
//   Pass 1 — each shard interns its locations' cloud/middle groups into
//     dense ids (one flat open-addressing table; stats and comparison RTTs
//     live in vectors indexed by id) and records each quartet's two ids for
//     pass 2. It also summarizes, per /24, where good quartets were seen:
//     the first location plus a "seen at another location too" bit. Every
//     learner key embeds the location, so shards never touch the same
//     group; the per-/24 summaries DO cross shards (dual-homed blocks) and
//     are merged after the barrier — a set union in summary form,
//     order-independent.
//   Pass 2 — contiguous input chunks are blamed in parallel against the
//     read-only merged state and concatenated in chunk order, so results
//     come out in input order.
// Every per-quartet decision is a pure function of ⟨group stats, merged
// good-location summaries, learner medians⟩, none of which depend on
// execution order, so N-thread output is bit-identical to the serial path
// (asserted in tests, along with equality to a map-and-set oracle).
#pragma once

#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include <array>

#include "analysis/expected_rtt.h"
#include "analysis/quartet.h"
#include "core/blame.h"
#include "core/config.h"
#include "net/topology.h"
#include "obs/registry.h"
#include "util/thread_pool.h"

namespace blameit::core {

/// /24s currently shielded from Cloud blame at a location because a recent
/// SteerShift churn event moved them there: entries are packed
/// (location << 32) | /24 block. Assembled by the pipeline from the churn
/// feed (config.churn_steer_shield); empty or null = no shielding, and
/// localize() is bit-identical to the churn-blind pipeline.
using SteerShield = std::unordered_set<std::uint64_t>;

[[nodiscard]] constexpr std::uint64_t steer_shield_key(
    net::CloudLocationId location, net::Slash24 block) noexcept {
  return (std::uint64_t{location.value} << 32) | block.block;
}

class PassiveLocalizer {
 public:
  PassiveLocalizer(const net::Topology* topology,
                   const analysis::ExpectedRttLearner* learner,
                   BlameItConfig config = {},
                   obs::Registry* registry = nullptr);

  /// Runs Algorithm 1 over one bucket's quartets (good and bad; the good
  /// ones shape the group fractions and the ambiguity signal). Returns one
  /// BlameResult per *bad* quartet, in input order regardless of thread
  /// count. `day` selects the learner's history window. A non-empty
  /// `shield` makes Cloud blame for shielded ⟨location, /24⟩ quartets
  /// require corroboration from the location's UN-shielded quartets (§13's
  /// re-steer rule); un-shielded quartets of an affected group likewise
  /// judge the cloud check on the un-steered evidence only.
  [[nodiscard]] std::vector<BlameResult> localize(
      std::span<const analysis::Quartet> quartets, int day,
      const SteerShield* shield = nullptr) const;

  /// The comparison value used for group bad-fractions: the learned expected
  /// RTT when history exists, else the badness threshold (bootstrap
  /// fallback). Exposed for tests and the ablation bench.
  [[nodiscard]] double comparison_rtt(analysis::ExpectedRttKey key, int day,
                                      net::Region region,
                                      net::DeviceClass device) const;

  [[nodiscard]] const BlameItConfig& config() const noexcept {
    return config_;
  }

  /// Parallelism localize() actually runs with (resolved from the knob).
  [[nodiscard]] int threads() const noexcept {
    return pool_ ? pool_->size() : 1;
  }

 private:
  const net::Topology* topology_;
  const analysis::ExpectedRttLearner* learner_;
  BlameItConfig config_;
  analysis::BadnessThresholds thresholds_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< null when serial

  // Instruments (null without a registry). Blame counters are bumped after
  // the parallel passes finish, from the merged result list, so the
  // registry never participates in the parallel section's determinism.
  obs::Histogram* localize_ms_h_ = nullptr;
  obs::Gauge* shard_imbalance_g_ = nullptr;
  std::array<obs::Counter*, kAllBlames.size()> blame_c_{};
};

}  // namespace blameit::core

// Algorithm 1 — coarse-grained fault localization from passive RTT data.
//
// Hierarchical elimination over one 5-minute bucket of quartets: start with
// the cloud node (richest aggregate), fall through to the middle BGP path,
// then the client, emitting "insufficient" when a group is too thin and
// "ambiguous" when the same /24 simultaneously saw good RTT at another
// location. Bad fractions compare against the *learned* expected RTTs
// (14-day medians), not the badness thresholds — §4.3 explains why.
//
// Two passes over the bucket, serial. Pass 1 interns each quartet's cloud
// and middle groups into dense ids (one flat open-addressing table; stats
// and comparison RTTs live in vectors indexed by id, so the learner is
// consulted only for a new group) and summarizes, per /24, where good quartets
// were seen: the first location plus a "seen at another location too" bit.
// Pass 2 blames each bad quartet against those tables, in input order.
// Every decision is a pure function of ⟨group stats, good-location
// summaries, learner medians⟩, which a map-and-set oracle checks in tests.
//
// The learner's reads here are the frozen day's table lookups, so the
// pipeline can run localize() while it learns from the same bucket on
// another thread (DESIGN §7).
#pragma once

#include <array>
#include <span>
#include <unordered_set>
#include <vector>

#include "analysis/expected_rtt.h"
#include "analysis/quartet.h"
#include "core/blame.h"
#include "core/config.h"
#include "net/topology.h"
#include "obs/registry.h"

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
  /// BlameResult per *bad* quartet, in input order. `day` selects the
  /// learner's history window. A non-empty
  /// `shield` makes Cloud blame for shielded ⟨location, /24⟩ quartets
  /// require corroboration from the location's UN-shielded quartets (§13's
  /// re-steer rule); un-shielded quartets of an affected group likewise
  /// judge the cloud check on the un-steered evidence only.
  [[nodiscard]] std::vector<BlameResult> localize(
      std::span<const analysis::Quartet> quartets, int day,
      const SteerShield* shield = nullptr) const;

  /// The comparison value used for group bad-fractions: the learned expected
  /// RTT when history exists, else the badness threshold (bootstrap
  /// fallback). Pass 1 uses it; exposed for tests and the ablation bench.
  [[nodiscard]] double comparison_rtt(analysis::ExpectedRttKey key, int day,
                                      net::Region region,
                                      net::DeviceClass device) const;

  [[nodiscard]] const BlameItConfig& config() const noexcept {
    return config_;
  }

 private:
  const net::Topology* topology_;
  const analysis::ExpectedRttLearner* learner_;
  BlameItConfig config_;
  analysis::BadnessThresholds thresholds_;

  // Instruments (null without a registry).
  obs::Histogram* localize_ms_h_ = nullptr;
  std::array<obs::Counter*, kAllBlames.size()> blame_c_{};
};

}  // namespace blameit::core

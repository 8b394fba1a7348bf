#include "core/passive.h"

#include <stdexcept>
#include <utility>

namespace blameit::core {

namespace {

struct GroupStats {
  int quartets = 0;
  int bad_vs_expected = 0;  ///< quartets whose mean exceeds the expected RTT
  // Un-shielded subgroup (cloud groups only, maintained only while a steer
  // shield is active): the group's evidence minus the quartets a SteerShift
  // event just moved in. For a group with no shielded members these equal
  // the full counters.
  int unshielded_quartets = 0;
  int unshielded_bad = 0;

  [[nodiscard]] double bad_fraction() const noexcept {
    return quartets == 0
               ? 0.0
               : static_cast<double>(bad_vs_expected) / quartets;
  }
  [[nodiscard]] double unshielded_fraction() const noexcept {
    return unshielded_quartets == 0
               ? 0.0
               : static_cast<double>(unshielded_bad) / unshielded_quartets;
  }
};

/// A group's comparison value plus whether it came from a transferred
/// baseline (drives BlameResult::grade) and whether a churn event recently
/// re-routed traffic onto the group's key (soft-badness corroboration).
struct Comparison {
  double value = 0.0;
  bool transferred = false;
  bool churned = false;
};

/// Group keys pack the location and device with the path (middle groups
/// set bit 62), so bit 63 is always clear and no key equals
/// FlatMap::kEmpty.
std::uint64_t cloud_group(const analysis::Quartet& q) noexcept {
  return (std::uint64_t{q.key.location.value} << 8) |
         static_cast<std::uint64_t>(q.key.device);
}

std::uint64_t middle_group(const analysis::Quartet& q) noexcept {
  return (std::uint64_t{1} << 62) |
         (std::uint64_t{q.key.location.value} << 40) |
         (std::uint64_t{q.middle.value} << 8) |
         static_cast<std::uint64_t>(q.key.device);
}

/// Linear-probing hash map with each value stored in its slot, grown at
/// half load. The all-ones key marks a free slot: no group key (bit 63 is
/// always clear) and no /24 (24 bits) takes that value. Tables live for one
/// localize() call, so pass 1 allocates per call, not per quartet or /24.
template <typename Key, typename Value>
class FlatMap {
 public:
  static constexpr Key kEmpty = ~Key{0};

  /// Room for `n` keys before the first growth.
  explicit FlatMap(std::size_t n = 8) {
    std::size_t capacity = 16;
    while (capacity < 2 * n) capacity *= 2;
    slots_.assign(capacity, Slot{kEmpty, Value{}});
  }

  /// The key's value, and whether the key was just inserted (its value is
  /// then value-initialized). The reference lasts until the next insert.
  std::pair<Value&, bool> try_emplace(Key key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot& slot = slots_[slot_of(key)];
    const bool fresh = slot.key == kEmpty;
    if (fresh) {
      slot.key = key;
      ++size_;
    }
    return {slot.value, fresh};
  }

  /// The key's value, or null if it was never inserted.
  [[nodiscard]] const Value* find(Key key) const noexcept {
    const Slot& slot = slots_[slot_of(key)];
    return slot.key == key ? &slot.value : nullptr;
  }

 private:
  struct Slot {
    Key key;
    Value value;
  };

  /// The key's slot, or the free slot it would take.
  [[nodiscard]] std::size_t slot_of(Key key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = util::mix64(key) & mask;
    while (slots_[i].key != key && slots_[i].key != kEmpty) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    const std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(2 * slots_.size(), Slot{kEmpty, Value{}}));
    for (const Slot& slot : old) {
      if (slot.key != kEmpty) slots_[slot_of(slot.key)] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// The ambiguity rule's view of one /24: where it first saw a good quartet,
/// and whether it saw one at any other location too. That is exactly what
/// the rule asks of the set of good locations it summarizes: the /24 was
/// good somewhere other than q's location iff `multi || location != q's`.
struct GoodBlock {
  std::uint16_t location = 0;
  bool multi = false;
};

}  // namespace

PassiveLocalizer::PassiveLocalizer(
    const net::Topology* topology,
    const analysis::ExpectedRttLearner* learner, BlameItConfig config,
    obs::Registry* registry)
    : topology_(topology), learner_(learner), config_(config) {
  if (!topology_ || !learner_) {
    throw std::invalid_argument{"PassiveLocalizer: null dependency"};
  }
  if (config_.tau <= 0.0 || config_.tau > 1.0 ||
      config_.min_group_quartets < 1) {
    throw std::invalid_argument{"BlameItConfig: invalid tau or min quartets"};
  }
  localize_ms_h_ = obs::histogram(registry, "passive.localize_ms");
  for (std::size_t i = 0; i < kAllBlames.size(); ++i) {
    blame_c_[i] = obs::counter(
        registry,
        std::string{"passive.blame."} + std::string{to_string(kAllBlames[i])});
  }
}

double PassiveLocalizer::comparison_rtt(analysis::ExpectedRttKey key, int day,
                                        net::Region region,
                                        net::DeviceClass device) const {
  // Prefer the learned 14-day median; with churn_baseline_transfer on, a
  // live transferred baseline (already discounted) comes next; before any
  // history accrues, fall back to the region target (deployment bootstrap;
  // also exercised by the expected-RTT ablation bench).
  if (config_.churn_baseline_transfer) {
    const auto graded = learner_->expected_with_provenance(key, day);
    if (graded.value) return *graded.value;
    return thresholds_.threshold(region, device);
  }
  const auto learned = learner_->expected(key, day);
  return learned ? *learned : thresholds_.threshold(region, device);
}

std::vector<BlameResult> PassiveLocalizer::localize(
    std::span<const analysis::Quartet> quartets, int day,
    const SteerShield* shield) const {
  const obs::ScopedTimer span{localize_ms_h_};
  const std::size_t n = quartets.size();
  const bool shield_on = shield && !shield->empty();
  const auto shielded = [&](const analysis::Quartet& q) {
    return shield_on &&
           shield->contains(steer_shield_key(q.key.location, q.key.block));
  };

  // Pass 1: group statistics against the learned expected RTTs, plus the
  // per-/24 good-location summaries for the ambiguity rule. Each quartet's
  // two group ids go into arrays pass 2 indexes directly.
  FlatMap<std::uint64_t, std::uint32_t> group_ids;  // group key -> dense id
  std::vector<GroupStats> groups;                   // by group id
  std::vector<Comparison> comparisons;              // by group id
  // Sized for every quartet being a good one on its own /24, so the per-/24
  // table never grows inside pass 1.
  FlatMap<std::uint32_t, GoodBlock> good_blocks{n};
  std::vector<std::uint32_t> cloud_ids(n);
  std::vector<std::uint32_t> middle_ids(n);
  // The group's dense id. A new group gets the next id and its comparison
  // RTT: the learner is consulted only when a group is first interned.
  const auto intern = [&](std::uint64_t group, analysis::ExpectedRttKey key,
                          const analysis::Quartet& q) {
    auto [id, fresh] = group_ids.try_emplace(group);
    if (!fresh) return id;
    id = static_cast<std::uint32_t>(groups.size());
    groups.emplace_back();
    Comparison& cmp = comparisons.emplace_back();
    cmp.value = comparison_rtt(key, day, q.region, q.key.device);
    if (config_.churn_baseline_transfer) {
      cmp.transferred =
          learner_->expected_with_provenance(key, day).provenance ==
          analysis::BaselineProvenance::kTransferred;
      cmp.churned = learner_->recently_churned(key, day);
    }
    return id;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const auto& q = quartets[i];
    const auto cid =
        intern(cloud_group(q),
               analysis::cloud_key(q.key.location, q.key.device), q);
    const auto mid = intern(
        middle_group(q),
        analysis::middle_key(q.key.location, q.middle, q.key.device), q);
    cloud_ids[i] = cid;
    middle_ids[i] = mid;

    // §4.2 subtlety: fractions count quartets, NOT RTT samples — a handful
    // of high-volume "good" /24s must not mask widespread badness.
    const bool cloud_bad = q.mean_rtt_ms > comparisons[cid].value;
    auto& cg = groups[cid];
    ++cg.quartets;
    cg.bad_vs_expected += cloud_bad;
    if (shield_on && !shielded(q)) {
      ++cg.unshielded_quartets;
      cg.unshielded_bad += cloud_bad;
    }

    auto& mg = groups[mid];
    ++mg.quartets;
    mg.bad_vs_expected += q.mean_rtt_ms > comparisons[mid].value;

    if (!q.bad) {
      auto [good, fresh] = good_blocks.try_emplace(q.key.block.block);
      if (fresh) {
        good.location = q.key.location.value;
      } else {
        good.multi = good.multi || good.location != q.key.location.value;
      }
    }
  }

  // Pass 2: hierarchical blame per bad quartet, in input order.
  std::vector<BlameResult> results;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& q = quartets[i];
    if (!q.bad) {
      // §13 soft badness: a route change can move a whole middle group to a
      // longer path whose RTT stays under the absolute region target —
      // invisible to the per-quartet threshold, but exactly what the
      // expectation comparison exists to catch. Only RECENTLY CHURNED
      // groups qualify (a live churn event re-routed traffic onto this
      // key): there, "the group crossed τ against its expectation" is a
      // path-shaped signal corroborated by the routing plane, while the
      // same crossing on an unchurned group can equally be a client-side
      // fault inflating a small group (so co-group quartets must keep
      // seed's abstain behavior). Soft-bad quartets are blamed Middle
      // directly and never touch the cloud or client branches.
      if (!config_.churn_baseline_transfer) continue;
      const auto& soft_mg = groups[middle_ids[i]];
      const auto& cmp = comparisons[middle_ids[i]];
      if (!cmp.churned) continue;
      if (soft_mg.quartets <= config_.min_group_quartets) continue;
      if (soft_mg.bad_fraction() < config_.tau) continue;
      if (q.mean_rtt_ms <= cmp.value) continue;
      BlameResult result;
      result.quartet = q;
      result.blame = Blame::Middle;
      result.grade = cmp.transferred ? BaselineGrade::Transferred
                                     : BaselineGrade::Fresh;
      results.push_back(std::move(result));
      continue;
    }
    BlameResult result;
    result.quartet = q;

    const auto& cg = groups[cloud_ids[i]];
    const auto& mg = groups[middle_ids[i]];

    // With a steer shield active, the cloud check runs on the group's
    // UN-shielded evidence: a destination-edge shift that is only visible
    // through just-re-steered /24s has no corroborating cloud-side signal
    // and must fall through to the middle checks. Groups untouched by the
    // shield have unshielded == full counters, so this is the original
    // rule for them; with the shield off it is the original rule for all.
    const bool cloud_blamed =
        shield_on ? (cg.unshielded_quartets > config_.min_group_quartets &&
                     cg.unshielded_fraction() >= config_.tau)
                  : cg.bad_fraction() >= config_.tau;
    if (cg.quartets <= config_.min_group_quartets) {
      result.blame = Blame::Insufficient;
    } else if (cloud_blamed) {
      result.blame = Blame::Cloud;
      result.faulty_as = topology_->cloud_as();
    } else if (mg.quartets <= config_.min_group_quartets) {
      result.blame = Blame::Insufficient;
    } else if (mg.bad_fraction() >= config_.tau) {
      result.blame = Blame::Middle;  // active phase refines to an AS
      result.grade = comparisons[middle_ids[i]].transferred
                         ? BaselineGrade::Transferred
                         : BaselineGrade::Fresh;
    } else {
      const auto* good = good_blocks.find(q.key.block.block);
      if (good && (good->multi || good->location != q.key.location.value)) {
        result.blame = Blame::Ambiguous;
      } else {
        result.blame = Blame::Client;
        result.faulty_as = q.client_as;
      }
    }
    results.push_back(std::move(result));
  }
  if (blame_c_[0]) {
    for (const auto& r : results) {
      blame_c_[static_cast<std::size_t>(r.blame)]->add();
    }
  }
  return results;
}

}  // namespace blameit::core

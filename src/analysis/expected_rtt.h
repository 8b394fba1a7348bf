// Rolling expected-RTT learner (§4.3): the median of the past 14 days of RTT
// observations, learned separately per cloud location and per ⟨cloud
// location, BGP path⟩, each split by device class. Algorithm 1 compares
// against these learned values — not the badness thresholds — when computing
// the bad fraction of a cloud node or middle segment, which is what lets it
// catch shifts that stay below the region target (the paper's 40 ms→55 ms
// worked example).
//
// State lives in a store::ReservoirStore — sorted immutable ⟨key, day⟩
// blocks + a current-day memtable, memory-bounded and snapshot-friendly. It
// requires GLOBALLY day-ordered observations (all keys share one mutable
// day), which is how the pipeline feeds the learner.
//
// The window a query on day d pools, days [d - window, d - 1], cannot change
// during day d: observations land on day d or later, and eviction only drops
// days below d - window. So evict_stale(d), run before day d's first bucket,
// ends by freezing day d's answers into a table (DESIGN §7), which
// transfer_baseline() patches. Queries for any other day recompute.
//
// Threading contract: expected(), expected_with_provenance() and
// recently_churned() for the frozen day may run concurrently with each
// other and with observe() of that day or later (the pipeline learns from a
// bucket while it localizes it). Every other call is externally serialized.
#pragma once

#include <climits>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>

#include "net/bgp.h"
#include "net/cloud.h"
#include "net/device.h"
#include "obs/registry.h"
#include "store/reservoir_store.h"
#include "store/snapshot.h"
#include "util/rng.h"
#include "util/time.h"

namespace blameit::analysis {

/// Opaque learner key; build with cloud_key / middle_key.
struct ExpectedRttKey {
  std::uint64_t packed = 0;
  bool operator==(const ExpectedRttKey&) const = default;
};

[[nodiscard]] ExpectedRttKey cloud_key(net::CloudLocationId location,
                                       net::DeviceClass device) noexcept;
[[nodiscard]] ExpectedRttKey middle_key(net::CloudLocationId location,
                                        net::MiddleSegmentId middle,
                                        net::DeviceClass device) noexcept;

/// Where an expected-RTT value came from, carried through Algorithm 1 so a
/// verdict can say how churn-degraded its baseline was.
enum class BaselineProvenance : std::uint8_t {
  kNone,         ///< no usable expectation at all
  kFresh,        ///< pooled median of the key's own window history
  kTransferred,  ///< inherited from another key after a churn event
};

/// An expectation with its provenance (expected_with_provenance()).
struct GradedExpectation {
  std::optional<double> value;
  BaselineProvenance provenance = BaselineProvenance::kNone;
};

/// Multiplier applied to a transferred baseline when it is served — the
/// freshness discount: the new path is ASSUMED a bit worse than the old
/// path's median until real history accumulates, so borderline groups don't
/// flap to bad on inherited optimism. Compounds across chained transfers.
inline constexpr double kTransferDiscount = 1.1;
/// Transfers older than this many days stop being served (and are evicted)
/// — by then the window either has real history or the path is gone.
inline constexpr int kTransferMaxAgeDays = 3;

struct ExpectedRttConfig {
  int window_days = 14;          ///< paper uses the past 14 days
  int reservoir_per_day = 256;   ///< bounded per-day sample memory
  /// Optional metrics sink (day-table hits and off-day recomputes as
  /// learner.memo_hits/memo_misses, evictions, tracked keys, and the
  /// store.learner.* block/memtable/merge metrics); null = no
  /// instrumentation, zero overhead.
  obs::Registry* registry = nullptr;
};

/// Learns expected RTTs as the median over a sliding multi-day window of
/// per-day reservoir samples. Deterministic given the feed order; the day
/// table never changes results, only their cost.
class ExpectedRttLearner {
 public:
  explicit ExpectedRttLearner(ExpectedRttConfig config = {});

  ExpectedRttLearner(const ExpectedRttLearner&) = delete;
  ExpectedRttLearner& operator=(const ExpectedRttLearner&) = delete;

  /// Feeds one observation (a quartet's mean RTT) for `key` on `day`.
  /// Throws std::invalid_argument when `day` precedes the day of an earlier
  /// observation of ANY key (globally day-ordered contract). An observation
  /// before the frozen day lands inside its window, so it drops the table.
  void observe(ExpectedRttKey key, int day, double rtt_ms);

  /// Median over days [day - window, day - 1]; nullopt when no history.
  /// The current day is excluded so an ongoing incident cannot teach the
  /// learner its own inflation. One table lookup on the frozen day.
  [[nodiscard]] std::optional<double> expected(ExpectedRttKey key,
                                               int day) const;

  /// Number of historical observations backing expected(key, day).
  [[nodiscard]] std::size_t history_size(ExpectedRttKey key, int day) const;

  /// expected() plus provenance: the key's own window median when it has
  /// one (kFresh), else a live transferred baseline with the freshness
  /// discount applied (kTransferred), else {nullopt, kNone}.
  [[nodiscard]] GradedExpectation expected_with_provenance(ExpectedRttKey key,
                                                           int day) const;

  /// Seeds `to_key`'s expectation from `from_key`, keyed on a churn event
  /// observed on `day`. The source value is captured EAGERLY — the source's
  /// fresh median at transfer time (or its own live transferred value, with
  /// one more discount compounded) — so the transfer survives the source
  /// being evicted later. Recorded even when the target has real window
  /// history (fresh history always wins at serve time; the entry then acts
  /// purely as the recently_churned() mark). No-ops (returns false) when
  /// the source has nothing usable or the target holds a strictly fresher
  /// transfer.
  bool transfer_baseline(ExpectedRttKey from_key, ExpectedRttKey to_key,
                         int day);

  /// True while `key` holds a live (non-expired, non-future) transfer entry
  /// — i.e. a churn event re-routed traffic onto this key within the last
  /// kTransferMaxAgeDays. The passive phase uses this as corroboration
  /// that a sub-threshold group shift is path-shaped (§13 soft badness).
  [[nodiscard]] bool recently_churned(ExpectedRttKey key, int day) const;

  /// Live transfer entries (observability + tests).
  [[nodiscard]] std::size_t transfer_count() const noexcept {
    return transfers_.size();
  }

  /// Drops per-day reservoirs older than `day - window` (memory bound) and
  /// forgets keys whose history becomes empty — otherwise churned keys (BGP
  /// paths that stop being used) would be tracked forever. Incremental: only
  /// blocks holding expired days are touched, so the cost tracks what
  /// expires, not the total tracked-key count. Then freezes `day`'s table.
  void evict_stale(int day);

  /// Freezes `day`'s table unless it is frozen already (a pipeline restored
  /// mid-day has no eviction due).
  void freeze_day(int day);

  /// The day whose table is frozen; INT_MIN when there is none.
  [[nodiscard]] int frozen_day() const noexcept { return table_day_; }

  /// Keys with at least one live reservoir (memory-regression observability).
  [[nodiscard]] std::size_t tracked_keys() const noexcept {
    return store_.tracked_keys();
  }

  /// Writes the full reservoir state as snapshot section "learner". The day
  /// table is not persisted (it is recomputed from the reservoirs).
  void save_state(store::SnapshotWriter& writer) const;
  /// Replaces the reservoir state from a snapshot and re-freezes the frozen
  /// day, if any, from it. Throws store::SnapshotError on a malformed
  /// section or one holding state of the removed hash-map backend.
  void restore_state(const store::SnapshotReader& reader);

 private:
  /// One key's answers for the frozen day.
  struct DayRow {
    GradedExpectation graded;  ///< expected_with_provenance()
    bool churned = false;      ///< recently_churned()
  };
  /// One inherited baseline: the (undiscounted) value captured from the
  /// source at transfer time. Held OUTSIDE the reservoir store, which
  /// requires globally day-ordered rows and so forbids seeding past days.
  struct TransferEntry {
    int day = -1;                ///< day the transfer was recorded
    double value = 0.0;          ///< source median at transfer time
    std::uint64_t from_key = 0;  ///< provenance (diagnostics + snapshots)
  };

  /// Pools the window's reservoirs into a reused scratch buffer and takes
  /// the median (nth_element, no per-call allocation).
  [[nodiscard]] std::optional<double> window_median(std::uint64_t key,
                                                    int day) const;
  /// The live transfer served on `day`, discounted; {nullopt, kNone} if none.
  [[nodiscard]] GradedExpectation transferred(std::uint64_t key,
                                              int day) const;
  /// recently_churned() from the transfer side table.
  [[nodiscard]] bool churned_on(std::uint64_t key, int day) const;
  void build_table(int day);
  /// Refreshes `key`'s row from transfers_; a fresh median stays.
  void patch_transfer_row(std::uint64_t key);

  ExpectedRttConfig config_;
  store::ReservoirStore store_;
  /// Key → inherited baseline. std::map: deterministic iteration order makes
  /// the snapshot bytes deterministic.
  std::map<std::uint64_t, TransferEntry> transfers_;
  /// Key → answers for table_day_; keys without a row have none.
  std::unordered_map<std::uint64_t, DayRow> table_;
  int table_day_ = INT_MIN;

  // Instruments (null without a registry).
  obs::Counter* memo_hits_c_ = nullptr;
  obs::Counter* memo_misses_c_ = nullptr;
  obs::Counter* evictions_c_ = nullptr;
  obs::Gauge* tracked_keys_g_ = nullptr;
};

}  // namespace blameit::analysis

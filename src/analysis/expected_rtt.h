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
// The pooled median is memoized per ⟨key, query day⟩: the 14-day window only
// changes at day rollover, yet expected() is consulted once per group per
// 5-minute bucket, so without the memo the same pool was rebuilt and
// re-medianed hundreds of times a day. An observation can only fall inside a
// memoized window when the query day lies ahead of it, so observe() clears
// the whole memo when its day is below the highest query day memoized (never
// in the pipeline, which queries the day it observes); evict_stale() clears
// it whenever it drops reservoirs. Both clears are safe because a cleared
// entry is recomputed deterministically.
//
// Threading contract: observe(), evict_stale(), save_state(), and
// restore_state() must be externally serialized with all other calls;
// expected() and history_size() may run concurrently with each other (the
// parallel passive localizer does this).
#pragma once

#include <climits>
#include <cstdint>
#include <map>
#include <mutex>
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

struct ExpectedRttConfig {
  int window_days = 14;          ///< paper uses the past 14 days
  int reservoir_per_day = 256;   ///< bounded per-day sample memory
  /// Multiplier applied to a transferred baseline when it is served — the
  /// freshness discount: the new path is ASSUMED a bit worse than the old
  /// path's median until real history accumulates, so borderline groups
  /// don't flap to bad on inherited optimism. Compounds across chained
  /// transfers.
  double transfer_discount = 1.1;
  /// Transfers older than this many days stop being served (and are evicted)
  /// — by then the window either has real history or the path is gone.
  int transfer_max_age_days = 3;
  /// Optional metrics sink (memoization hit/miss, evictions, tracked keys,
  /// and the store.learner.* block/memtable/merge metrics); null = no
  /// instrumentation, zero overhead.
  obs::Registry* registry = nullptr;
};

/// Learns expected RTTs as the median over a sliding multi-day window of
/// per-day reservoir samples. Deterministic given the feed order; the memo
/// cache never changes results, only their cost.
class ExpectedRttLearner {
 public:
  explicit ExpectedRttLearner(ExpectedRttConfig config = {});

  ExpectedRttLearner(const ExpectedRttLearner&) = delete;
  ExpectedRttLearner& operator=(const ExpectedRttLearner&) = delete;

  /// Feeds one observation (a quartet's mean RTT) for `key` on `day`.
  /// Throws std::invalid_argument when `day` precedes the day of an earlier
  /// observation of ANY key (globally day-ordered contract).
  void observe(ExpectedRttKey key, int day, double rtt_ms);

  /// Median over days [day - window, day - 1]; nullopt when no history.
  /// The current day is excluded so an ongoing incident cannot teach the
  /// learner its own inflation. O(1) when the ⟨key, day⟩ cache is warm.
  [[nodiscard]] std::optional<double> expected(ExpectedRttKey key,
                                               int day) const;

  /// Number of historical observations backing expected(key, day).
  [[nodiscard]] std::size_t history_size(ExpectedRttKey key, int day) const;

  /// expected() plus provenance: the key's own window median when it has
  /// one (kFresh), else a live transferred baseline with the freshness
  /// discount applied (kTransferred), else {nullopt, kNone}. Thread-safe
  /// like expected() — the transfer table only changes under the external
  /// serialization contract.
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
  /// transfer_max_age_days. The passive phase uses this as corroboration
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
  /// expires, not the total tracked-key count.
  void evict_stale(int day);

  /// Keys with at least one live reservoir (memory-regression observability).
  [[nodiscard]] std::size_t tracked_keys() const noexcept {
    return store_.tracked_keys();
  }

  /// Writes the full reservoir state as snapshot section "learner". The memo
  /// is not persisted (recomputation yields identical values).
  void save_state(store::SnapshotWriter& writer) const;
  /// Replaces the reservoir state from a snapshot. Throws store::
  /// SnapshotError on a malformed section or one holding state of the
  /// removed hash-map backend.
  void restore_state(const store::SnapshotReader& reader);

 private:
  struct Memo {
    int cache_day = INT_MIN;
    std::optional<double> cache_value;
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
  /// Drops every memoized median (see the file comment for when).
  void clear_memo();

  ExpectedRttConfig config_;
  store::ReservoirStore store_;
  /// Key → inherited baseline. std::map: deterministic iteration order makes
  /// the snapshot bytes deterministic.
  std::map<std::uint64_t, TransferEntry> transfers_;
  mutable std::unordered_map<std::uint64_t, Memo> memo_;
  /// Highest query day memoized since the last clear (guarded by
  /// cache_mutex_ in expected(); observe() reads it under the external
  /// serialization contract).
  mutable int memo_max_day_ = INT_MIN;
  mutable std::mutex cache_mutex_;

  // Instruments (null without a registry).
  obs::Counter* memo_hits_c_ = nullptr;
  obs::Counter* memo_misses_c_ = nullptr;
  obs::Counter* evictions_c_ = nullptr;
  obs::Gauge* tracked_keys_g_ = nullptr;
};

}  // namespace blameit::analysis

// The online verdict store: the bridge between the batch pipeline and the
// query service. After every pipeline step the step report is *published*
// into the store; HTTP handler threads then answer lookups against immutable
// snapshots without ever blocking the publisher (or being blocked by it).
//
// Concurrency design (epoch/RCU-style):
//  - Verdicts are sharded by client /24. Each shard is an immutable block
//    of key-sorted columns held by std::shared_ptr; publish() merges the
//    step's upserts into a replacement block off to the side and swaps the
//    pointer (SnapshotSlot below). The block is also the publisher's
//    working state, so publishing copies nothing. Readers load the pointer
//    once and binary-search a frozen block — nothing is held across the
//    lookup, no torn reads, and a reader keeps its snapshot alive for as
//    long as it holds the pointer.
//  - Incident timelines, recent diagnoses, and health live in one
//    atomically-swapped Timeline snapshot, same scheme.
//  - publish() must be called from ONE thread at a time (the pipeline step
//    loop); every read API is safe from any number of threads concurrently
//    with publish(). The epoch counter increments once per publish, after
//    all shards are swapped, so `epoch` answers "has anything changed?"
//
// Verdict semantics: the store keeps the most recent blame per
// ⟨client /24, cloud location⟩, aged out after `verdict_retention_buckets`
// (a verdict is a statement about recent buckets, not history — history is
// the incident timeline's job). Confidence mapping: passive Cloud/Client
// verdicts are definite (High, §4.2's hierarchical elimination); Middle
// verdicts start Low (AS unknown) and adopt the active diagnosis's
// confidence and culprit when one lands; Ambiguous/Insufficient stay Low.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/active.h"
#include "core/pipeline.h"
#include "net/ipv4.h"
#include "obs/registry.h"
#include "store/snapshot.h"
#include "util/time.h"

namespace blameit::svc {

/// An atomically-swappable shared_ptr slot. libstdc++'s
/// std::atomic<std::shared_ptr> guards its raw pointer with a lock bit
/// whose reader-side unlock is relaxed — a formal data race (and a
/// ThreadSanitizer report) even though it is benign on real hardware. This
/// slot does the same spin-lock dance with acquire/release on both sides,
/// so the happens-before edge TSan checks for actually exists. The lock is
/// held only to copy or swap one pointer (a refcount bump), so readers and
/// the publisher exclude each other for nanoseconds, never across a scan
/// of the snapshot itself.
template <typename T>
class SnapshotSlot {
 public:
  [[nodiscard]] std::shared_ptr<T> load() const {
    lock();
    std::shared_ptr<T> copy = ptr_;
    unlock();
    return copy;
  }

  void store(std::shared_ptr<T> next) {
    lock();
    ptr_.swap(next);
    unlock();
    // `next` now holds the displaced snapshot; it releases (and possibly
    // destroys the old map) outside the critical section.
  }

 private:
  void lock() const {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      while (flag_.test(std::memory_order_relaxed)) {
      }
    }
  }
  void unlock() const { flag_.clear(std::memory_order_release); }

  mutable std::atomic_flag flag_;  // value-initialized clear since C++20
  std::shared_ptr<T> ptr_;
};

/// One current blame verdict for a ⟨client /24, cloud location⟩ pair.
struct Verdict {
  net::Slash24 block;
  net::CloudLocationId location;
  net::MiddleSegmentId middle;
  net::AsId client_as;
  core::Blame blame{};
  /// Faulty AS when known: passive (cloud/client AS) or active (culprit).
  std::optional<net::AsId> faulty_as;
  core::DiagnosisConfidence confidence = core::DiagnosisConfidence::Low;
  /// The faulty AS came from an on-demand traceroute diagnosis.
  bool from_active = false;
  bool baseline_predates_issue = false;
  /// §13 degradation grade of the expectation this verdict compared
  /// against: fresh learned history, a churn-transferred baseline, or a
  /// cold-path probe measurement.
  core::BaselineGrade grade = core::BaselineGrade::Fresh;
  util::TimeBucket bucket;  ///< bucket the verdict was computed from
  double mean_rtt_ms = 0.0;
  int sample_count = 0;

  bool operator==(const Verdict&) const = default;
};

/// One incident run on the timeline: consecutive buckets over which the
/// same aggregate (cloud location / ⟨location, BGP path⟩ / client AS) kept
/// drawing blame.
struct Incident {
  core::Blame category{};  ///< Cloud, Middle, or Client
  net::CloudLocationId location;
  std::optional<net::MiddleSegmentId> middle;  ///< Middle incidents only
  std::optional<net::AsId> faulty_as;
  util::MinuteTime first_seen;
  util::MinuteTime last_seen;
  int buckets = 0;  ///< bad buckets observed in the run
  bool open = true;
  /// Most-degraded §13 baseline grade any of the run's blames carried
  /// (Fresh < Transferred < ProbedCold): consumers see at a glance whether
  /// the incident's evidence leaned on inherited or probe-seeded baselines.
  core::BaselineGrade grade = core::BaselineGrade::Fresh;
};

/// An active-phase diagnosis with the step time it landed at.
struct DiagnosisRecord {
  util::MinuteTime at;
  core::ActiveDiagnosis diagnosis;
};

class VerdictStore {
 public:
  struct Config {
    int shards = 8;
    /// Verdicts older than this many buckets (vs the newest published
    /// bucket) age out of lookup results. Default: one hour of buckets.
    int verdict_retention_buckets = 12;
    /// Closed incidents kept on the published timeline (newest win).
    std::size_t max_closed_incidents = 1024;
    /// Recent diagnoses kept for /v1/diagnoses (newest win).
    std::size_t max_diagnoses = 256;
    obs::Registry* registry = nullptr;
  };

  struct Health {
    std::uint64_t epoch = 0;  ///< 0 = nothing published yet
    util::MinuteTime last_step{0};
    std::uint64_t steps = 0;
    std::uint64_t degraded_steps = 0;
    /// The latest published step ran passive-only (probing outage).
    bool degraded = false;
  };

  VerdictStore() : VerdictStore(Config{}) {}
  explicit VerdictStore(Config config);

  /// Folds one step report into the store and swaps fresh snapshots in.
  /// Single-publisher: call from the pipeline step thread only.
  void publish(const core::StepReport& report);

  // ---- Read side: safe from any thread, wait-free vs the publisher. ----

  /// Current verdict for one ⟨/24, location⟩, if any is live.
  [[nodiscard]] std::optional<Verdict> lookup(
      net::Slash24 block, net::CloudLocationId location) const;

  /// All live verdicts for one /24 (any location), location-ordered.
  [[nodiscard]] std::vector<Verdict> lookup(net::Slash24 block) const;

  /// All live verdicts whose /24 falls inside `prefix` (full scan; meant
  /// for coarse operator queries, not the hot path). Ordered by block then
  /// location.
  [[nodiscard]] std::vector<Verdict> lookup(net::Prefix prefix) const;

  /// Incidents (open and closed) with last_seen >= since, ordered by
  /// first_seen.
  [[nodiscard]] std::vector<Incident> incidents_since(
      util::MinuteTime since) const;

  /// Most recent active-phase diagnoses, oldest first.
  [[nodiscard]] std::vector<DiagnosisRecord> recent_diagnoses() const;

  [[nodiscard]] Health health() const;
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Approximate bytes held by the live verdict rows (the published column
  /// blocks plus any pending upserts; excludes the incident/diagnosis
  /// rings). Publisher-thread only.
  [[nodiscard]] std::size_t verdict_state_bytes() const;

  /// Writes the full store state as snapshot section "verdicts" (verdict
  /// rows in a globally key-sorted normal form, plus incident runs,
  /// diagnosis ring, and health counters). Publisher-thread only.
  void save_state(store::SnapshotWriter& writer) const;
  /// Replaces the store state from a snapshot and republishes reader
  /// snapshots. The normal form carries no shard layout, so any shard count
  /// restores it. Publisher-thread only; concurrent readers see either the
  /// old or the fully-restored state per shard.
  void restore_state(const store::SnapshotReader& reader);

 private:
  using Key = std::uint64_t;  // block << 16 | location
  /// One shard's upserts since the last publish.
  using Delta = std::unordered_map<Key, Verdict>;

  /// One shard's verdicts as immutable parallel columns sorted by key.
  /// ~43 bytes/row vs ~130+ for an unordered_map node of Verdict, and the
  /// publisher's working state IS the published snapshot (no copy).
  struct VerdictColumns {
    std::vector<Key> keys;  // sorted; block = key >> 16, location = low 16
    std::vector<std::uint32_t> middles;
    std::vector<std::uint32_t> client_ases;
    std::vector<std::uint8_t> blames;
    std::vector<std::uint32_t> faulty_ases;  // AsId + 1; 0 = none
    std::vector<std::uint8_t> confidences;
    std::vector<std::uint8_t> flags;  // bit0 from_active, bit1 predates,
                                      // bits2-3 BaselineGrade
    std::vector<std::int64_t> buckets;
    std::vector<double> mean_rtts;
    std::vector<std::int32_t> sample_counts;
    std::int64_t min_bucket = INT64_MAX;  // aging fast-path

    [[nodiscard]] std::size_t rows() const noexcept { return keys.size(); }
    [[nodiscard]] std::size_t bytes() const noexcept;
    void append(Key key, const Verdict& v);
    [[nodiscard]] Verdict row(std::size_t i) const;
  };

  /// Everything non-sharded, swapped as one snapshot.
  struct Timeline {
    std::vector<Incident> incidents;  ///< by first_seen; open runs included
    std::vector<DiagnosisRecord> diagnoses;
    Health health;
  };

  [[nodiscard]] static constexpr Key key_of(
      net::Slash24 block, net::CloudLocationId location) noexcept {
    return (static_cast<Key>(block.block) << 16) | location.value;
  }
  [[nodiscard]] std::size_t shard_of(net::Slash24 block) const noexcept {
    // Blocks are allocated densely; splitmix-style scramble spreads them.
    std::uint64_t x = block.block;
    x ^= x >> 16;
    x *= 0x45d9f3b;
    return static_cast<std::size_t>(x) % shards_.size();
  }

  void fold_blames(const core::StepReport& report);
  void fold_incidents(const core::StepReport& report);
  void publish_timeline(const core::StepReport& report);
  /// Merges a shard's pending delta into its column block and ages expired
  /// rows; publishes the new block (which is also the new working state).
  void rebuild_shard(std::size_t i, std::int64_t horizon);
  void publish_restored_timeline(util::MinuteTime last_step, bool degraded);

  Config config_;

  // Publisher-private working state (only the publish thread touches it):
  // per-shard pending upserts and the current immutable block (the same
  // shared_ptr the reader slot holds).
  std::vector<Delta> delta_;
  std::vector<std::shared_ptr<const VerdictColumns>> current_;
  util::TimeBucket newest_bucket_{0};

  struct OpenRun {
    Incident incident;
    util::TimeBucket last_bucket{0};
  };
  std::unordered_map<Key, OpenRun> open_runs_;  // keyed by packed run key
  std::deque<Incident> closed_;                 // bounded history
  std::deque<DiagnosisRecord> diagnoses_;       // bounded ring
  std::uint64_t steps_ = 0;
  std::uint64_t degraded_steps_ = 0;

  // Shared state (publisher swaps, readers load).
  std::vector<SnapshotSlot<const VerdictColumns>> shards_;
  SnapshotSlot<const Timeline> timeline_;
  std::atomic<std::uint64_t> epoch_{0};

  // Instruments (null without a registry).
  obs::Counter* publishes_c_ = nullptr;
  obs::Gauge* verdicts_g_ = nullptr;
  obs::Gauge* open_incidents_g_ = nullptr;
  obs::Histogram* publish_ms_h_ = nullptr;
  obs::Counter* lookups_c_ = nullptr;
};

}  // namespace blameit::svc

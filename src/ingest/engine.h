// Sharded streaming ingestion engine (the paper's Fig 7 analytics cluster,
// front of the pipeline): consumes the raw TCP-handshake RttRecord stream
// and emits finalized ⟨/24, location, device, 5-min bucket⟩ quartets.
//
// Architecture (lock-free hot path):
//   producer ──hash(/24)──▶ [SPSC record ring]──▶ shard worker 0 ─┐
//             (batched       [SPSC record ring]──▶ shard worker 1 ─┼─▶ finalized
//              publish)         ...                                │    quartets
//                            [SPSC record ring]──▶ shard worker N ─┘ (per bucket)
//                            [control ring: watermark/stop/fence]
//
//  - Records are hash-partitioned by client /24, so each worker owns its
//    accumulators lock-free (arena-backed open addressing, see
//    ShardedQuartetBuilder).
//  - The producer→shard handoff is a fixed-capacity SPSC ring of raw
//    records per pair (util::SpscRing): the producer accumulates
//    `batch_records` locally, then bulk-publishes the block with one
//    release store. The worker aggregates records where they sit in the
//    ring and hands the slots back after each chunk (no copy out). A full
//    ring spins then parks the producer — that is the backpressure
//    mechanism, and every park is counted.
//  - Producer-written and worker-read per-shard state live in separate
//    cache-line-aligned types, so the per-record work on either side never
//    pulls a line the other side writes.
//  - Watermark / stop / fence are rare control messages on a small side
//    ring per shard. Each carries the data-ring sequence number published
//    before it (its *barrier*): the worker applies a control message only
//    after consuming the data ring up to that barrier, which restores the
//    exact record/watermark interleaving a single merged queue would give.
//  - Bucket finalization is watermark-driven: advance_watermark(w) promises
//    "no record with time < w will arrive". A bucket finalizes once the
//    watermark passes its end by the configured lateness allowance;
//    out-of-order records within the allowance are accepted, records for
//    already-finalized buckets are counted as late and dropped — never
//    silently lost.
//
// Determinism guarantee (tested): for a fixed record sequence from ONE
// producer thread, the finalized quartet set — keys, sample counts, and
// bit-exact means — is identical for any shard count, batch size, and ring
// capacity, and identical to the single-threaded QuartetBuilder fed the
// same sequence. This holds because per-/24 ordering survives batching, the
// FIFO rings, and the barrier-sequenced control channel, so every quartet's
// RTT sum is accumulated in the same order on every path.
//
// Threading contract: submit/advance_watermark/flush/close must be called
// from one producer thread (or externally serialized). stats() and
// take_bucket() may be called from any thread at any time; stats snapshots
// are tear-free per shard (see stats.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/quartet.h"
#include "analysis/record.h"
#include "ingest/sharded_builder.h"
#include "ingest/stats.h"
#include "obs/registry.h"
#include "util/spsc_ring.h"
#include "util/time.h"

namespace blameit::ingest {

struct IngestConfig {
  int shards = 4;
  /// Records the producer accumulates before bulk-publishing a block to a
  /// shard ring (amortizes the release store and the consumer wakeup).
  std::size_t batch_records = 256;
  /// Ring capacity in batches: each shard ring holds
  /// batch_records * queue_batches records (rounded up to a power of two)
  /// before the producer parks (backpressure).
  std::size_t queue_batches = 64;
  /// Out-of-order tolerance: a bucket finalizes only once the watermark is
  /// this many minutes past its end; records older than that are late.
  int lateness_minutes = util::kBucketMinutes;
  analysis::QuartetBuilderConfig builder{};
  /// Optional metrics sink (ring pressure, park/drop accounting, watermark
  /// lag); null = no instrumentation, zero overhead.
  obs::Registry* registry = nullptr;
};

class IngestEngine {
 public:
  IngestEngine(const net::Topology* topology,
               analysis::BadnessThresholds thresholds,
               IngestConfig config = {});
  ~IngestEngine();

  IngestEngine(const IngestEngine&) = delete;
  IngestEngine& operator=(const IngestEngine&) = delete;

  /// Enqueues one raw record (producer side; may park under backpressure).
  /// After close() the record is dropped and counted, never blocked on — a
  /// closed engine must not deadlock its producer.
  void submit(const analysis::RttRecord& record);

  /// Promises that no record with time < `watermark` will be submitted.
  /// Triggers finalization of every bucket whose end + lateness allowance
  /// is <= watermark. Monotonic; regressions are ignored.
  void advance_watermark(util::MinuteTime watermark);

  /// Blocks until every record and watermark submitted so far has been
  /// processed by its shard (a full fence; finalized output is then stable).
  /// No-op after close().
  void flush();

  /// Finalizes everything regardless of watermark, fences, joins the
  /// workers, and closes the shard rings so later pushes drop-and-count
  /// instead of blocking against a ring nobody drains. Called by the
  /// destructor; idempotent.
  void close();

  /// Removes and returns the finalized quartets of `bucket`, merged across
  /// shards and sorted by key (deterministic order for any shard count).
  /// Empty if the bucket was not finalized yet (watermark not there) or was
  /// already taken.
  [[nodiscard]] std::vector<analysis::Quartet> take_bucket(
      util::TimeBucket bucket);

  /// Buckets finalized and not yet taken, ascending.
  [[nodiscard]] std::vector<util::TimeBucket> finalized_buckets() const;

  /// Watermark that take_bucket(bucket) requires (bucket end + lateness).
  [[nodiscard]] util::MinuteTime watermark_to_finalize(
      util::TimeBucket bucket) const noexcept {
    return bucket.next().start().plus_minutes(config_.lateness_minutes);
  }

  [[nodiscard]] IngestStats stats() const;
  [[nodiscard]] const IngestConfig& config() const noexcept { return config_; }

 private:
  struct SyncPoint;

  /// Rare control-plane message, sequenced against the data ring by
  /// `barrier` (records published to this shard before the message).
  struct Control {
    enum class Kind : std::uint8_t { Watermark, Stop } kind = Kind::Watermark;
    util::MinuteTime watermark{};
    std::uint64_t barrier = 0;
    std::shared_ptr<SyncPoint> sync;  ///< optional fence
  };

  /// State the producer writes on every record. A cache-line-aligned type,
  /// so no worker-read field can share its line.
  struct alignas(64) ProducerSide {
    /// Partial batch; its capacity is reused across batches (no per-batch
    /// allocation).
    std::vector<analysis::RttRecord> pending;
  };

  /// State the worker reads on every record, on a line of its own.
  struct alignas(64) WorkerSide {
    util::MinuteTime watermark{std::int64_t{-1} << 40};
    std::int64_t finalized_before = std::int64_t{-1} << 40;  // bucket index
  };

  struct Shard {
    Shard(std::size_t ring_records, std::size_t control_slots)
        : ring(ring_records), control(control_slots) {}

    util::SpscRing<analysis::RttRecord> ring;  ///< data hot path
    util::SpscRing<Control> control;           ///< watermark/stop/fence
    ProducerSide producer;
    WorkerSide worker;

    // Finalized output, shared worker/reader.
    mutable std::mutex out_mutex;
    std::unordered_map<std::int64_t, std::vector<analysis::Quartet>> out;

    // Tear-free stats slice: written by the worker once per chunk, copied
    // whole by stats().
    mutable std::mutex stats_mutex;
    ShardStats slice;

    std::thread thread;  ///< the worker; declared after all it uses
  };

  void worker_loop(std::size_t shard_index);
  /// Returns true on Stop.
  bool apply_control(Shard& shard, std::size_t shard_index,
                     const Control& msg);
  void process_records(Shard& shard, std::size_t shard_index,
                       const analysis::RttRecord* records, std::size_t n);
  void process_watermark(Shard& shard, std::size_t shard_index,
                         util::MinuteTime watermark);
  void push_pending(std::size_t shard_index);
  void push_control(std::size_t shard_index, Control msg);
  void advance_watermark_internal(util::MinuteTime watermark);
  void fence();

  IngestConfig config_;
  ShardedQuartetBuilder builder_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Producer-owned; atomic (minutes) so workers may read it for the
  /// watermark-lag gauge without a race.
  std::atomic<std::int64_t> producer_watermark_{std::int64_t{-1} << 40};
  /// Producer-side counters: accumulated in plain producer-owned fields and
  /// published to these atomics at batch granularity (see stats.h for the
  /// snapshot-ordering argument).
  std::atomic<std::uint64_t> records_in_{0};
  std::atomic<std::uint64_t> batches_submitted_{0};
  std::atomic<std::uint64_t> closed_dropped_{0};
  std::uint64_t produced_ = 0;       // producer-owned mirror of records_in_
  std::uint64_t batches_ = 0;        // producer-owned mirror
  std::uint64_t closed_drops_ = 0;   // producer-owned mirror
  bool closed_ = false;

  // Instruments (null without a registry).
  obs::Counter* records_in_c_ = nullptr;
  obs::Counter* late_dropped_c_ = nullptr;
  obs::Counter* closed_dropped_c_ = nullptr;
  obs::Counter* backpressure_c_ = nullptr;
  obs::Gauge* ring_high_water_g_ = nullptr;
  obs::Gauge* watermark_lag_g_ = nullptr;
};

}  // namespace blameit::ingest

#include "ingest/engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <span>
#include <stdexcept>

namespace blameit::ingest {

namespace {

/// Very distant future: close() uses it to flush every open bucket.
constexpr util::MinuteTime kEndOfTime{std::int64_t{1} << 40};

/// Records a worker takes from its ring per peek (caps the latency of a
/// pending control message without giving up bulk transfer).
constexpr std::size_t kWorkerChunk = 1024;

/// Control-ring capacity (messages). Control traffic is one watermark per
/// bucket plus fences; the producer parks if a slow shard lets it pile up.
constexpr std::size_t kControlSlots = 128;

[[nodiscard]] bool key_less(const analysis::QuartetKey& a,
                            const analysis::QuartetKey& b) noexcept {
  if (a.block != b.block) return a.block < b.block;
  if (a.location.value != b.location.value) {
    return a.location.value < b.location.value;
  }
  if (a.device != b.device) return a.device < b.device;
  return a.bucket < b.bucket;
}

[[nodiscard]] std::uint64_t elapsed_ns(
    std::chrono::steady_clock::time_point t0) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

/// Countdown fence: each shard decrements on consuming it; the producer
/// waits for zero.
struct IngestEngine::SyncPoint {
  std::mutex mutex;
  std::condition_variable cv;
  int remaining = 0;

  void arrive() {
    std::lock_guard lock{mutex};
    if (--remaining == 0) cv.notify_all();
  }
  void wait() {
    std::unique_lock lock{mutex};
    cv.wait(lock, [&] { return remaining == 0; });
  }
};

IngestEngine::IngestEngine(const net::Topology* topology,
                           analysis::BadnessThresholds thresholds,
                           IngestConfig config)
    : config_(config),
      builder_(topology, thresholds, config.shards, config.builder) {
  if (config_.shards < 1 || config_.batch_records < 1 ||
      config_.queue_batches < 1 || config_.lateness_minutes < 0) {
    throw std::invalid_argument{"IngestConfig: invalid values"};
  }
  const std::size_t ring_records =
      config_.batch_records * config_.queue_batches;
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(ring_records, kControlSlots));
    shards_.back()->producer.pending.reserve(config_.batch_records);
  }
  records_in_c_ = obs::counter(config_.registry, "ingest.records_in");
  late_dropped_c_ = obs::counter(config_.registry, "ingest.late_dropped");
  closed_dropped_c_ = obs::counter(config_.registry, "ingest.closed_dropped");
  backpressure_c_ =
      obs::counter(config_.registry, "ingest.backpressure_waits");
  ring_high_water_g_ =
      obs::gauge(config_.registry, "ingest.ring_high_water");
  watermark_lag_g_ =
      obs::gauge(config_.registry, "ingest.watermark_lag_minutes");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->thread = std::thread{[this, i] { worker_loop(i); }};
  }
}

IngestEngine::~IngestEngine() { close(); }

void IngestEngine::submit(const analysis::RttRecord& record) {
  if (closed_) {
    ++closed_drops_;
    closed_dropped_.store(closed_drops_, std::memory_order_relaxed);
    obs::add(closed_dropped_c_);
    return;
  }
  const std::size_t shard =
      builder_.shard_of(net::Slash24::of(record.client_ip));
  auto& pending = shards_[shard]->producer.pending;
  pending.push_back(record);
  ++produced_;
  if (pending.size() >= config_.batch_records) push_pending(shard);
}

void IngestEngine::push_pending(std::size_t shard_index) {
  auto& shard = *shards_[shard_index];
  auto& pending = shard.producer.pending;
  if (pending.empty()) return;
  const auto batch_records = pending.size();
  // Publish the producer counter BEFORE the records become visible, so
  // records_in >= sum(shard delivered) holds in every stats snapshot.
  records_in_.store(produced_, std::memory_order_release);
  obs::add(records_in_c_, batch_records);
  const auto status = shard.ring.push_all(pending.data(), batch_records);
  pending.clear();  // keeps its capacity for the next batch
  if (status == util::RingPush::Closed) {
    // The ring dropped the batch (engine closing underneath the producer):
    // account for every record so nothing is silently lost.
    closed_drops_ += batch_records;
    closed_dropped_.store(closed_drops_, std::memory_order_relaxed);
    obs::add(closed_dropped_c_, batch_records);
    return;
  }
  if (status == util::RingPush::OkAfterParking) obs::add(backpressure_c_);
  obs::set_max(ring_high_water_g_,
               static_cast<double>(shard.ring.high_water()));
  ++batches_;
  batches_submitted_.store(batches_, std::memory_order_relaxed);
}

void IngestEngine::push_control(std::size_t shard_index, Control msg) {
  auto& shard = *shards_[shard_index];
  // The barrier pins this message after every record published so far: the
  // worker drains the data ring to the barrier before applying it.
  msg.barrier = shard.ring.pushed();
  shard.control.push_all(&msg, 1);
  // The worker parks on the DATA ring; ring a doorbell for the side channel.
  shard.ring.wake();
}

void IngestEngine::advance_watermark(util::MinuteTime watermark) {
  if (closed_) return;
  advance_watermark_internal(watermark);
}

void IngestEngine::advance_watermark_internal(util::MinuteTime watermark) {
  if (watermark.minutes <=
      producer_watermark_.load(std::memory_order_relaxed)) {
    return;
  }
  producer_watermark_.store(watermark.minutes, std::memory_order_relaxed);
  // Partial batches must go first so no record is ordered after the
  // watermark that covers it.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    push_pending(i);
    push_control(i, Control{.kind = Control::Kind::Watermark,
                            .watermark = watermark});
  }
}

void IngestEngine::fence() {
  auto sync = std::make_shared<SyncPoint>();
  sync->remaining = static_cast<int>(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    push_pending(i);
    // A watermark message that does not move the watermark, but carries the
    // fence: applied strictly after everything published before it.
    push_control(
        i, Control{.kind = Control::Kind::Watermark,
                   .watermark = util::MinuteTime{producer_watermark_.load(
                       std::memory_order_relaxed)},
                   .sync = sync});
  }
  sync->wait();
}

void IngestEngine::flush() {
  if (closed_) return;  // workers are gone; there is nothing to fence
  fence();
}

void IngestEngine::close() {
  if (closed_) return;
  closed_ = true;
  advance_watermark_internal(kEndOfTime);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    push_control(i, Control{.kind = Control::Kind::Stop});
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  // With the workers gone nobody drains the rings: close them so any
  // straggling push drops-and-counts instead of parking forever.
  for (auto& shard : shards_) {
    shard->ring.close();
    shard->control.close();
  }
}

void IngestEngine::worker_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  // The next control message, held back until its barrier is drained.
  Control next_ctl;
  std::uint64_t consumed = 0;
  bool have_ctl = false;
  for (;;) {
    // Apply every control message whose data barrier has been reached.
    for (;;) {
      if (!have_ctl) {
        if (shard.control.try_pop(&next_ctl, 1) != 1) break;
        have_ctl = true;
      }
      if (next_ctl.barrier > consumed) break;
      have_ctl = false;
      if (apply_control(shard, shard_index, next_ctl)) return;
    }
    // Records are processed where they sit in the ring; their slots go back
    // to the producer once the whole chunk is done.
    const std::span<const analysis::RttRecord> chunk =
        shard.ring.peek_wait(kWorkerChunk);
    if (chunk.empty()) {
      // Woken by wake() (a control message is waiting — the loop above
      // picks it up) or by close(). Defensive exit for a close() that
      // never delivered Stop (control ring closed underneath us).
      if (shard.ring.closed() && !have_ctl && shard.control.closed() &&
          shard.control.popped() == shard.control.pushed() &&
          shard.ring.popped() == shard.ring.pushed()) {
        return;
      }
      continue;
    }
    // Process the chunk, splitting at control barriers: a record published
    // after a watermark is never applied before it (late accounting and
    // finalization order match the single-queue semantics exactly).
    const std::size_t n = chunk.size();
    std::size_t pos = 0;
    while (pos < n) {
      if (!have_ctl && shard.control.try_pop(&next_ctl, 1) == 1) {
        have_ctl = true;
      }
      if (have_ctl && next_ctl.barrier <= consumed) {
        have_ctl = false;
        // No records are ever published after Stop.
        if (apply_control(shard, shard_index, next_ctl)) return;
        continue;
      }
      std::size_t limit = n;
      if (have_ctl) {
        limit = static_cast<std::size_t>(std::min<std::uint64_t>(
            n, pos + (next_ctl.barrier - consumed)));
      }
      process_records(shard, shard_index, chunk.data() + pos, limit - pos);
      consumed += limit - pos;
      pos = limit;
    }
    shard.ring.consume(n);
  }
}

bool IngestEngine::apply_control(Shard& shard, std::size_t shard_index,
                                 const Control& msg) {
  if (msg.kind == Control::Kind::Stop) {
    if (msg.sync) msg.sync->arrive();
    return true;
  }
  process_watermark(shard, shard_index, msg.watermark);
  if (msg.sync) msg.sync->arrive();
  return false;
}

void IngestEngine::process_records(Shard& shard, std::size_t shard_index,
                                   const analysis::RttRecord* records,
                                   std::size_t n) {
  if (n == 0) return;
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t accepted = 0;
  std::uint64_t late = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& record = records[i];
    if (util::TimeBucket::of(record.time).index <
        shard.worker.finalized_before) {
      ++late;  // its bucket was already finalized — count, drop
      continue;
    }
    builder_.add(shard_index, record);
    ++accepted;
  }
  const std::uint64_t busy = elapsed_ns(t0);
  const auto& drops = builder_.drops(shard_index);
  {
    std::lock_guard lock{shard.stats_mutex};
    shard.slice.records += accepted;
    shard.slice.late_dropped += late;
    shard.slice.delivered += n;
    shard.slice.unknown_dropped = drops.unknown_blocks;
    shard.slice.min_samples_dropped = drops.min_samples;
    shard.slice.busy_ns += busy;
  }
  if (late > 0) obs::add(late_dropped_c_, late);
}

void IngestEngine::process_watermark(Shard& shard, std::size_t shard_index,
                                     util::MinuteTime watermark) {
  if (watermark <= shard.worker.watermark) return;
  shard.worker.watermark = watermark;
  // How far this shard trails the producer's announced watermark (ring
  // delay, in minutes). The close()-time kEndOfTime flush is not a real
  // watermark, so it is excluded.
  if (watermark_lag_g_ != nullptr && watermark < kEndOfTime) {
    const std::int64_t produced =
        producer_watermark_.load(std::memory_order_relaxed);
    if (produced < kEndOfTime.minutes) {
      watermark_lag_g_->set_max(
          static_cast<double>(produced - watermark.minutes));
    }
  }
  // Buckets whose window end + lateness allowance the watermark passed.
  const util::MinuteTime closed_through =
      watermark.plus_minutes(-config_.lateness_minutes);
  const auto ready = builder_.ready_buckets(shard_index, closed_through);
  for (const auto bucket : ready) {
    const auto t0 = std::chrono::steady_clock::now();
    auto quartets = builder_.take_bucket(shard_index, bucket);
    const std::uint64_t ns = elapsed_ns(t0);
    std::uint64_t out_records = 0;
    for (const auto& q : quartets) {
      out_records += static_cast<std::uint64_t>(q.sample_count);
    }
    const auto& drops = builder_.drops(shard_index);
    {
      std::lock_guard lock{shard.stats_mutex};
      shard.slice.buckets_finalized += 1;
      shard.slice.quartets += quartets.size();
      shard.slice.records_out += out_records;
      shard.slice.finalize_ns_total += ns;
      shard.slice.finalize_ns_max = std::max(shard.slice.finalize_ns_max, ns);
      shard.slice.busy_ns += ns;
      shard.slice.unknown_dropped = drops.unknown_blocks;
      shard.slice.min_samples_dropped = drops.min_samples;
    }
    if (!quartets.empty()) {
      std::lock_guard lock{shard.out_mutex};
      auto& slot = shard.out[bucket.index];
      slot.insert(slot.end(), std::make_move_iterator(quartets.begin()),
                  std::make_move_iterator(quartets.end()));
    }
  }
  // Every bucket ending at or before closed_through is now immutable, even
  // ones this shard never saw a record for: anything older is late. Bucket
  // b is closed iff (b.index + 1) * kBucketMinutes <= closed_through, so
  // the first still-open bucket is floor(closed_through / kBucketMinutes)
  // — the same predicate ready_buckets() used above.
  if (closed_through.minutes > 0) {
    shard.worker.finalized_before =
        std::max(shard.worker.finalized_before,
                 closed_through.minutes / util::kBucketMinutes);
  }
}

std::vector<analysis::Quartet> IngestEngine::take_bucket(
    util::TimeBucket bucket) {
  std::vector<analysis::Quartet> out;
  for (auto& shard : shards_) {
    std::lock_guard lock{shard->out_mutex};
    auto it = shard->out.find(bucket.index);
    if (it == shard->out.end()) continue;
    out.insert(out.end(), std::make_move_iterator(it->second.begin()),
               std::make_move_iterator(it->second.end()));
    shard->out.erase(it);
  }
  std::sort(out.begin(), out.end(),
            [](const analysis::Quartet& a, const analysis::Quartet& b) {
              return key_less(a.key, b.key);
            });
  return out;
}

std::vector<util::TimeBucket> IngestEngine::finalized_buckets() const {
  std::vector<util::TimeBucket> out;
  for (const auto& shard : shards_) {
    std::lock_guard lock{shard->out_mutex};
    for (const auto& [index, quartets] : shard->out) {
      out.push_back(util::TimeBucket{index});
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

IngestStats IngestEngine::stats() const {
  IngestStats s;
  s.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats slice;
    {
      std::lock_guard lock{shard->stats_mutex};
      slice = shard->slice;
    }
    slice.ring_high_water = shard->ring.high_water();
    slice.backpressure_waits = shard->ring.producer_parks();
    slice.consumer_parks = shard->ring.consumer_parks();
    s.late_dropped += slice.late_dropped;
    s.quartets_finalized += slice.quartets;
    s.records_out += slice.records_out;
    s.unknown_dropped += slice.unknown_dropped;
    s.min_samples_dropped += slice.min_samples_dropped;
    s.backpressure_waits += slice.backpressure_waits;
    s.ring_high_water = std::max(s.ring_high_water, slice.ring_high_water);
    s.shards.push_back(slice);
  }
  // Producer counters are read AFTER the shard slices: every record counted
  // in a slice's `delivered` was published to records_in_ first, so the
  // snapshot can never show delivered > records_in.
  s.records_in = records_in_.load(std::memory_order_acquire);
  s.batches_submitted = batches_submitted_.load(std::memory_order_relaxed);
  s.closed_dropped = closed_dropped_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace blameit::ingest

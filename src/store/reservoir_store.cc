#include "store/reservoir_store.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "util/rng.h"

namespace blameit::store {

namespace {

// Rough per-entry bookkeeping cost of an unordered_map node (bucket slot +
// node header); only feeds the memory gauges, never a decision.
constexpr std::size_t kHashNodeOverhead = 48;

}  // namespace

std::size_t ReservoirBlock::bytes() const noexcept {
  return keys.capacity() * sizeof(std::uint64_t) +
         days.capacity() * sizeof(std::int32_t) +
         offsets.capacity() * sizeof(std::uint32_t) +
         samples.capacity() * sizeof(double) + sizeof(*this);
}

ReservoirStore::ReservoirStore(ReservoirStoreConfig config)
    : config_(std::move(config)) {
  if (config_.reservoir_cap < 1 || config_.max_blocks < 1) {
    throw std::invalid_argument{
        "ReservoirStoreConfig: invalid reservoir_cap/max_blocks"};
  }
  const std::string& p = config_.metric_prefix;
  memtable_bytes_g_ = obs::gauge(config_.registry, p + ".memtable_bytes");
  block_count_g_ = obs::gauge(config_.registry, p + ".block_count");
  block_bytes_g_ = obs::gauge(config_.registry, p + ".block_bytes");
  merges_c_ = obs::counter(config_.registry, p + ".merges");
  merge_ms_h_ = obs::histogram(config_.registry, p + ".merge_ms");
}

void ReservoirStore::observe(std::uint64_t key, int day, double rtt_ms) {
  if (day < 0 || rtt_ms < 0.0) {
    throw std::invalid_argument{"ReservoirStore: negative day or RTT"};
  }
  if (day < memtable_day_) {
    throw std::invalid_argument{
        "ReservoirStore: observations must arrive day-ordered (all keys "
        "share one mutable day)"};
  }
  if (day > memtable_day_) {
    freeze_memtable();
    memtable_day_ = day;
  }
  auto [it, inserted] = memtable_.try_emplace(key);
  MemRow& row = it->second;
  if (inserted) ++meta_[key];
  ++row.seen;
  const auto cap = static_cast<std::size_t>(config_.reservoir_cap);
  if (row.sample.size() < cap) {
    row.sample.push_back(rtt_ms);
    ++memtable_samples_;
  } else {
    // Algorithm R: keep a uniform sample of the day's stream, deterministic
    // via a counter-seeded hash rather than shared RNG state.
    const std::uint64_t slot =
        util::hash_combine(
            key, util::hash_combine(static_cast<std::uint64_t>(day),
                                    row.seen)) %
        row.seen;
    if (slot < cap) row.sample[static_cast<std::size_t>(slot)] = rtt_ms;
  }
  obs::set(memtable_bytes_g_,
           static_cast<double>(memtable_.size() *
                                   (sizeof(MemRow) + kHashNodeOverhead) +
                               memtable_samples_ * sizeof(double)));
}

void ReservoirStore::freeze_memtable() {
  if (memtable_.empty()) return;

  auto block = std::make_shared<ReservoirBlock>();
  block->min_day = memtable_day_;
  block->max_day = memtable_day_;
  std::vector<std::uint64_t> keys;
  keys.reserve(memtable_.size());
  for (const auto& [key, row] : memtable_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());

  block->keys = std::move(keys);
  block->days.assign(block->keys.size(), memtable_day_);
  block->offsets.reserve(block->keys.size() + 1);
  block->offsets.push_back(0);
  block->samples.reserve(memtable_samples_);
  for (const std::uint64_t key : block->keys) {
    const MemRow& row = memtable_.at(key);
    block->samples.insert(block->samples.end(), row.sample.begin(),
                          row.sample.end());
    block->offsets.push_back(
        static_cast<std::uint32_t>(block->samples.size()));
  }
  blocks_.push_back(std::move(block));
  memtable_.clear();
  memtable_samples_ = 0;
  maybe_merge();
  refresh_gauges();
}

void ReservoirStore::maybe_merge() {
  if (blocks_.size() <= static_cast<std::size_t>(config_.max_blocks)) return;
  const auto start = std::chrono::steady_clock::now();
  blocks_.assign(1, merge_blocks(blocks_));
  obs::record(merge_ms_h_, std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count());
  obs::add(merges_c_);
}

std::shared_ptr<const ReservoirBlock> ReservoirStore::merge_blocks(
    const std::vector<std::shared_ptr<const ReservoirBlock>>& inputs) {
  struct RowRef {
    std::uint64_t key;
    std::int32_t day;
    const ReservoirBlock* block;
    std::size_t row;
  };
  std::vector<RowRef> rows;
  std::size_t total_rows = 0;
  std::size_t total_samples = 0;
  for (const auto& block : inputs) {
    total_rows += block->rows();
    total_samples += block->samples.size();
  }
  rows.reserve(total_rows);
  for (const auto& block : inputs) {
    for (std::size_t i = 0; i < block->rows(); ++i) {
      rows.push_back(RowRef{block->keys[i], block->days[i], block.get(), i});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const RowRef& a, const RowRef& b) {
    return a.key != b.key ? a.key < b.key : a.day < b.day;
  });

  auto merged = std::make_shared<ReservoirBlock>();
  merged->keys.reserve(total_rows);
  merged->days.reserve(total_rows);
  merged->offsets.reserve(total_rows + 1);
  merged->offsets.push_back(0);
  merged->samples.reserve(total_samples);
  merged->min_day = INT_MAX;
  merged->max_day = INT_MIN;
  for (const RowRef& ref : rows) {
    merged->keys.push_back(ref.key);
    merged->days.push_back(ref.day);
    const auto begin = ref.block->offsets[ref.row];
    const auto end = ref.block->offsets[ref.row + 1];
    merged->samples.insert(merged->samples.end(),
                           ref.block->samples.begin() + begin,
                           ref.block->samples.begin() + end);
    merged->offsets.push_back(
        static_cast<std::uint32_t>(merged->samples.size()));
    merged->min_day = std::min(merged->min_day, static_cast<int>(ref.day));
    merged->max_day = std::max(merged->max_day, static_cast<int>(ref.day));
  }
  if (rows.empty()) {
    merged->min_day = 0;
    merged->max_day = 0;
  }
  return merged;
}

void ReservoirStore::note_row_removed(std::uint64_t key) {
  const auto it = meta_.find(key);
  if (it == meta_.end()) return;
  if (--it->second == 0) meta_.erase(it);
}

void ReservoirStore::drop_block_rows(const ReservoirBlock& block,
                                     int cutoff_day, std::size_t* dropped) {
  for (std::size_t i = 0; i < block.rows(); ++i) {
    if (block.days[i] < cutoff_day) {
      note_row_removed(block.keys[i]);
      ++*dropped;
    }
  }
}

std::size_t ReservoirStore::evict_stale(int cutoff_day) {
  std::size_t dropped = 0;

  std::vector<std::shared_ptr<const ReservoirBlock>> kept;
  kept.reserve(blocks_.size());
  for (const auto& block : blocks_) {
    if (block->max_day < cutoff_day) {
      // Whole block expired.
      drop_block_rows(*block, cutoff_day, &dropped);
      continue;
    }
    if (block->min_day >= cutoff_day) {
      kept.push_back(block);
      continue;
    }
    // Straddles the cutoff: rewrite with only the live rows.
    drop_block_rows(*block, cutoff_day, &dropped);
    auto rewritten = std::make_shared<ReservoirBlock>();
    rewritten->min_day = INT_MAX;
    rewritten->max_day = INT_MIN;
    rewritten->offsets.push_back(0);
    for (std::size_t i = 0; i < block->rows(); ++i) {
      if (block->days[i] < cutoff_day) continue;
      rewritten->keys.push_back(block->keys[i]);
      rewritten->days.push_back(block->days[i]);
      rewritten->samples.insert(
          rewritten->samples.end(),
          block->samples.begin() + block->offsets[i],
          block->samples.begin() + block->offsets[i + 1]);
      rewritten->offsets.push_back(
          static_cast<std::uint32_t>(rewritten->samples.size()));
      rewritten->min_day =
          std::min(rewritten->min_day, static_cast<int>(block->days[i]));
      rewritten->max_day =
          std::max(rewritten->max_day, static_cast<int>(block->days[i]));
    }
    if (!rewritten->keys.empty()) kept.push_back(std::move(rewritten));
  }
  blocks_ = std::move(kept);

  if (memtable_day_ != INT_MIN && memtable_day_ < cutoff_day &&
      !memtable_.empty()) {
    for (const auto& [key, row] : memtable_) {
      note_row_removed(key);
      ++dropped;
    }
    memtable_.clear();
    memtable_samples_ = 0;
    obs::set(memtable_bytes_g_, 0.0);
  }
  refresh_gauges();
  return dropped;
}

bool ReservoirStore::contains(std::uint64_t key) const {
  return meta_.find(key) != meta_.end();
}

void ReservoirStore::collect_window(std::uint64_t key, int day,
                                    int window_days,
                                    std::vector<double>& pool) const {
  const int low = day - window_days;  // inclusive; day itself excluded
  for (const auto& block : blocks_) {
    if (block->max_day < low || block->min_day >= day) continue;
    const auto [first, last] =
        std::equal_range(block->keys.begin(), block->keys.end(), key);
    for (auto it = first; it != last; ++it) {
      const auto i =
          static_cast<std::size_t>(it - block->keys.begin());
      if (block->days[i] >= day || block->days[i] < low) continue;
      pool.insert(pool.end(), block->samples.begin() + block->offsets[i],
                  block->samples.begin() + block->offsets[i + 1]);
    }
  }
  if (memtable_day_ >= low && memtable_day_ < day) {
    const auto it = memtable_.find(key);
    if (it != memtable_.end()) {
      pool.insert(pool.end(), it->second.sample.begin(),
                  it->second.sample.end());
    }
  }
}

std::size_t ReservoirStore::window_sample_count(std::uint64_t key, int day,
                                                int window_days) const {
  const int low = day - window_days;
  std::size_t n = 0;
  for (const auto& block : blocks_) {
    if (block->max_day < low || block->min_day >= day) continue;
    const auto [first, last] =
        std::equal_range(block->keys.begin(), block->keys.end(), key);
    for (auto it = first; it != last; ++it) {
      const auto i =
          static_cast<std::size_t>(it - block->keys.begin());
      if (block->days[i] >= day || block->days[i] < low) continue;
      n += block->offsets[i + 1] - block->offsets[i];
    }
  }
  if (memtable_day_ >= low && memtable_day_ < day) {
    const auto it = memtable_.find(key);
    if (it != memtable_.end()) n += it->second.sample.size();
  }
  return n;
}

std::size_t ReservoirStore::total_rows() const {
  std::size_t n = memtable_.size();
  for (const auto& block : blocks_) n += block->rows();
  return n;
}

std::size_t ReservoirStore::approx_bytes() const {
  std::size_t n = memtable_.size() * (sizeof(MemRow) + kHashNodeOverhead) +
                  memtable_samples_ * sizeof(double) +
                  meta_.size() * (sizeof(std::uint64_t) +
                                  sizeof(std::uint32_t) + kHashNodeOverhead);
  for (const auto& block : blocks_) n += block->bytes();
  return n;
}

void ReservoirStore::refresh_gauges() {
  obs::set(block_count_g_, static_cast<double>(blocks_.size()));
  std::size_t bytes = 0;
  for (const auto& block : blocks_) bytes += block->bytes();
  obs::set(block_bytes_g_, static_cast<double>(bytes));
}

void ReservoirStore::save(std::string& out) const {
  put_varint(out, 1);  // store payload format
  put_svarint(out, memtable_day_);

  // Memtable rows, key-sorted.
  std::vector<std::uint64_t> mem_keys;
  mem_keys.reserve(memtable_.size());
  for (const auto& [key, row] : memtable_) mem_keys.push_back(key);
  std::sort(mem_keys.begin(), mem_keys.end());
  put_varint(out, mem_keys.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t key : mem_keys) {
    put_varint(out, key - prev);
    prev = key;
  }
  for (const std::uint64_t key : mem_keys) {
    put_varint(out, memtable_.at(key).seen);
  }
  for (const std::uint64_t key : mem_keys) {
    put_varint(out, memtable_.at(key).sample.size());
  }
  for (const std::uint64_t key : mem_keys) {
    for (const double v : memtable_.at(key).sample) put_f64(out, v);
  }

  // Frozen rows in a block-structure-independent normal form: globally
  // ⟨key, day⟩-sorted, so equal logical state serializes to equal bytes no
  // matter how far merging got.
  struct RowRef {
    std::uint64_t key;
    std::int32_t day;
    const ReservoirBlock* block;
    std::size_t row;
  };
  std::vector<RowRef> rows;
  for (const auto& block : blocks_) {
    for (std::size_t i = 0; i < block->rows(); ++i) {
      rows.push_back(RowRef{block->keys[i], block->days[i], block.get(), i});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const RowRef& a, const RowRef& b) {
    return a.key != b.key ? a.key < b.key : a.day < b.day;
  });

  put_varint(out, rows.size());
  prev = 0;
  for (const RowRef& ref : rows) {
    put_varint(out, ref.key - prev);
    prev = ref.key;
  }
  for (const RowRef& ref : rows) put_svarint(out, ref.day);
  for (const RowRef& ref : rows) {
    put_varint(out, ref.block->offsets[ref.row + 1] -
                        ref.block->offsets[ref.row]);
  }
  for (const RowRef& ref : rows) {
    const auto begin = ref.block->offsets[ref.row];
    const auto end = ref.block->offsets[ref.row + 1];
    for (std::size_t i = begin; i < end; ++i) {
      put_f64(out, ref.block->samples[i]);
    }
  }
}

void ReservoirStore::restore(ByteReader& in) {
  const std::uint64_t format = in.varint();
  if (format != 1) {
    in.fail("unsupported reservoir payload format " + std::to_string(format));
  }
  const std::int64_t day64 = in.svarint();
  if (day64 < INT_MIN || day64 > INT_MAX) in.fail("memtable day out of range");

  std::unordered_map<std::uint64_t, MemRow> memtable;
  std::size_t memtable_samples = 0;
  std::vector<std::uint64_t> mem_keys(in.count("memtable row count"));
  std::uint64_t prev = 0;
  for (std::size_t r = 0; r < mem_keys.size(); ++r) {
    // Strictly ascending, as save() writes them: a zero delta (or one that
    // wraps) would fold two rows into one.
    const std::uint64_t key = prev + in.varint();
    if (r > 0 && key <= prev) in.fail("duplicate or unsorted memtable key");
    mem_keys[r] = prev = key;
  }
  memtable.reserve(mem_keys.size());
  for (const std::uint64_t key : mem_keys) {
    memtable[key].seen = in.varint();
  }
  std::vector<std::uint64_t> mem_counts(mem_keys.size());
  for (auto& c : mem_counts) {
    c = in.varint();
    if (c > static_cast<std::uint64_t>(config_.reservoir_cap)) {
      in.fail("memtable sample count exceeds reservoir cap");
    }
  }
  for (std::size_t r = 0; r < mem_keys.size(); ++r) {
    auto& row = memtable[mem_keys[r]];
    row.sample.reserve(static_cast<std::size_t>(mem_counts[r]));
    for (std::uint64_t i = 0; i < mem_counts[r]; ++i) {
      row.sample.push_back(in.f64());
    }
    memtable_samples += row.sample.size();
  }

  const std::size_t frozen_rows = in.count("frozen row count");
  auto block = std::make_shared<ReservoirBlock>();
  block->keys.resize(frozen_rows);
  block->days.resize(frozen_rows);
  // Frozen rows must be in save()'s normal form: strictly ascending in
  // ⟨key, day⟩, so no ⟨key, day⟩ appears twice.
  constexpr const char* kUnsorted =
      "frozen rows not strictly ascending in <key, day>";
  prev = 0;
  for (std::size_t r = 0; r < frozen_rows; ++r) {
    const std::uint64_t key = prev + in.varint();
    if (key < prev) in.fail(kUnsorted);
    block->keys[r] = prev = key;
  }
  block->min_day = INT_MAX;
  block->max_day = INT_MIN;
  for (std::size_t r = 0; r < frozen_rows; ++r) {
    const std::int64_t d = in.svarint();
    if (d < INT_MIN || d > INT_MAX) in.fail("row day out of range");
    const auto day = static_cast<std::int32_t>(d);
    if (r > 0 && block->keys[r] == block->keys[r - 1] &&
        day <= block->days[r - 1]) {
      in.fail(kUnsorted);
    }
    block->days[r] = day;
    block->min_day = std::min(block->min_day, static_cast<int>(day));
    block->max_day = std::max(block->max_day, static_cast<int>(day));
  }
  if (frozen_rows == 0) {
    block->min_day = 0;
    block->max_day = 0;
  }
  std::vector<std::uint64_t> counts(frozen_rows);
  std::size_t total_samples = 0;
  for (auto& c : counts) {
    c = in.varint();
    if (c > static_cast<std::uint64_t>(config_.reservoir_cap)) {
      in.fail("row sample count exceeds reservoir cap");
    }
    total_samples += static_cast<std::size_t>(c);
  }
  if (total_samples > in.remaining() / sizeof(double)) {
    in.fail("frozen sample count exceeds the bytes left");
  }
  block->offsets.reserve(counts.size() + 1);
  block->offsets.push_back(0);
  block->samples.reserve(total_samples);
  for (const std::uint64_t c : counts) {
    for (std::uint64_t i = 0; i < c; ++i) {
      block->samples.push_back(in.f64());
    }
    block->offsets.push_back(static_cast<std::uint32_t>(block->samples.size()));
  }
  in.expect_done();

  // All parsed cleanly — commit.
  memtable_ = std::move(memtable);
  memtable_samples_ = memtable_samples;
  memtable_day_ = static_cast<int>(day64);
  blocks_.clear();
  if (block->rows() > 0) blocks_.push_back(std::move(block));
  meta_.clear();
  for (const auto& b : blocks_) {
    for (const std::uint64_t key : b->keys) ++meta_[key];
  }
  for (const auto& [key, row] : memtable_) ++meta_[key];
  obs::set(memtable_bytes_g_,
           static_cast<double>(memtable_.size() *
                                   (sizeof(MemRow) + kHashNodeOverhead) +
                               memtable_samples_ * sizeof(double)));
  refresh_gauges();
}

}  // namespace blameit::store

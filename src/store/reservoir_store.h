// Memory-bounded columnar reservoir store: the LSM-flavored backing for
// per-⟨key, day⟩ Algorithm-R reservoirs (expected-RTT learner state).
//
//   observe() ──▶ memtable (hash map, CURRENT day only)
//                    │ day rollover: freeze into a sorted immutable block
//                    ▼
//   blocks_  = [ merged block (days a..b) | day block | day block | ... ]
//                    │ count > max_blocks: merge into one run, inline
//                    ▼
//   evict_stale() drops/rewrites whole blocks (rows older than the window)
//
// Each immutable block stores rows sorted by ⟨key, day⟩ in parallel columns
// (keys / days / sample-offsets / samples), so a key's window is two binary
// searches + a contiguous scan instead of a per-key heap allocation. Day
// ranges of successive blocks are disjoint and ascending, which keeps a
// key's rows in ascending-day order across the block list, so a key's
// pooled-median input sequence is its days ascending, insertion order
// within a day — independent of how far merging got.
//
// Input contract: observations must be GLOBALLY day-ordered (all keys share
// one mutable day), which is how the pipeline feeds it. Mutations
// (observe/evict/restore) must be externally serialized with all other
// calls; reads may run concurrently with each other. Merges run inline.
#pragma once

#include <climits>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/registry.h"
#include "store/encoding.h"

namespace blameit::store {

struct ReservoirStoreConfig {
  int reservoir_cap = 256;  ///< Algorithm-R per-day sample bound
  /// Merge all immutable blocks into one sorted run once more than this
  /// many accumulate (bounds read fan-out and per-block overhead).
  int max_blocks = 8;
  /// Instrument name prefix (`<prefix>.memtable_bytes` etc.).
  std::string metric_prefix = "store";
  obs::Registry* registry = nullptr;
};

/// One immutable sorted run of ⟨key, day⟩ reservoir rows, columnar layout.
/// Row i's samples are samples[offsets[i] .. offsets[i+1]).
struct ReservoirBlock {
  std::vector<std::uint64_t> keys;    // sorted by (key, day)
  std::vector<std::int32_t> days;
  std::vector<std::uint32_t> offsets; // rows + 1 entries, prefix sums
  std::vector<double> samples;
  int min_day = 0;
  int max_day = 0;

  [[nodiscard]] std::size_t rows() const noexcept { return keys.size(); }
  [[nodiscard]] std::size_t bytes() const noexcept;
};

class ReservoirStore {
 public:
  explicit ReservoirStore(ReservoirStoreConfig config = {});

  ReservoirStore(const ReservoirStore&) = delete;
  ReservoirStore& operator=(const ReservoirStore&) = delete;

  /// Feeds one observation. Throws std::invalid_argument when `day`
  /// precedes the current memtable day (globally day-ordered contract).
  void observe(std::uint64_t key, int day, double rtt_ms);

  /// Drops every row with day < cutoff_day; returns how many rows (per-day
  /// reservoirs) were dropped. Incremental: touches only expired blocks.
  std::size_t evict_stale(int cutoff_day);

  [[nodiscard]] bool contains(std::uint64_t key) const;

  /// Appends every sample of `key` with day in [day - window_days, day - 1]
  /// to `pool`, days ascending, insertion order within a day — the pooled-
  /// median input sequence.
  void collect_window(std::uint64_t key, int day, int window_days,
                      std::vector<double>& pool) const;

  /// Sample count collect_window would append.
  [[nodiscard]] std::size_t window_sample_count(std::uint64_t key, int day,
                                                int window_days) const;

  /// Keys with at least one live row.
  [[nodiscard]] std::size_t tracked_keys() const noexcept {
    return meta_.size();
  }

  /// Calls f(key) for each key with a live row, in no particular order.
  template <typename F>
  void for_each_key(F&& f) const {
    for (const auto& [key, rows] : meta_) f(key);
  }

  // Introspection (tests, bench).
  [[nodiscard]] std::size_t block_count() const noexcept {
    return blocks_.size();
  }
  [[nodiscard]] std::size_t total_rows() const;
  [[nodiscard]] std::size_t memtable_rows() const noexcept {
    return memtable_.size();
  }
  [[nodiscard]] std::size_t approx_bytes() const;

  /// Serializes the full logical state into `out` in a block-structure-
  /// independent normal form (globally ⟨key, day⟩-sorted frozen rows +
  /// memtable), so equal logical state ⇒ equal bytes regardless of merge
  /// timing.
  void save(std::string& out) const;

  /// Replaces the store's state from a save() payload. Throws SnapshotError
  /// (with offsets) on malformed data.
  void restore(ByteReader& in);

 private:
  struct MemRow {
    std::uint64_t seen = 0;
    std::vector<double> sample;
  };
  void freeze_memtable();
  /// Merges the whole block list into one run once it exceeds max_blocks.
  void maybe_merge();
  void drop_block_rows(const ReservoirBlock& block, int cutoff_day,
                       std::size_t* dropped);
  void note_row_removed(std::uint64_t key);
  void refresh_gauges();

  static std::shared_ptr<const ReservoirBlock> merge_blocks(
      const std::vector<std::shared_ptr<const ReservoirBlock>>& inputs);

  ReservoirStoreConfig config_;
  std::unordered_map<std::uint64_t, MemRow> memtable_;
  int memtable_day_ = INT_MIN;
  std::size_t memtable_samples_ = 0;  // Σ sample.size(), for the bytes gauge
  std::vector<std::shared_ptr<const ReservoirBlock>> blocks_;
  std::unordered_map<std::uint64_t, std::uint32_t> meta_;  // key -> live rows

  obs::Gauge* memtable_bytes_g_ = nullptr;
  obs::Gauge* block_count_g_ = nullptr;
  obs::Gauge* block_bytes_g_ = nullptr;
  obs::Counter* merges_c_ = nullptr;
  obs::Histogram* merge_ms_h_ = nullptr;
};

}  // namespace blameit::store

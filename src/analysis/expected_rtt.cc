#include "analysis/expected_rtt.h"

#include <algorithm>
#include <stdexcept>

#include "util/stats.h"

namespace blameit::analysis {

ExpectedRttKey cloud_key(net::CloudLocationId location,
                         net::DeviceClass device) noexcept {
  return ExpectedRttKey{(std::uint64_t{1} << 62) |
                        (std::uint64_t{location.value} << 8) |
                        static_cast<std::uint64_t>(device)};
}

ExpectedRttKey middle_key(net::CloudLocationId location,
                          net::MiddleSegmentId middle,
                          net::DeviceClass device) noexcept {
  return ExpectedRttKey{(std::uint64_t{2} << 62) |
                        (std::uint64_t{location.value} << 40) |
                        (std::uint64_t{middle.value} << 8) |
                        static_cast<std::uint64_t>(device)};
}

namespace {

store::ReservoirStoreConfig validated_store_config(
    const ExpectedRttConfig& config) {
  if (config.window_days < 1 || config.reservoir_per_day < 1) {
    throw std::invalid_argument{"ExpectedRttConfig: invalid window/reservoir"};
  }
  return store::ReservoirStoreConfig{.reservoir_cap = config.reservoir_per_day,
                                     .metric_prefix = "store.learner",
                                     .registry = config.registry};
}

}  // namespace

ExpectedRttLearner::ExpectedRttLearner(ExpectedRttConfig config)
    : config_(config), store_(validated_store_config(config_)) {
  memo_hits_c_ = obs::counter(config_.registry, "learner.memo_hits");
  memo_misses_c_ = obs::counter(config_.registry, "learner.memo_misses");
  evictions_c_ = obs::counter(config_.registry, "learner.reservoir_evictions");
  tracked_keys_g_ = obs::gauge(config_.registry, "learner.tracked_keys");
}

void ExpectedRttLearner::observe(ExpectedRttKey key, int day, double rtt_ms) {
  if (day < 0 || rtt_ms < 0.0) {
    throw std::invalid_argument{"ExpectedRttLearner: negative day or RTT"};
  }
  // A day before the frozen one lands inside the frozen window, so the
  // table goes. The pipeline only ever observes the frozen day or later.
  if (day < table_day_) {
    table_.clear();
    table_day_ = INT_MIN;
  }
  store_.observe(key.packed, day, rtt_ms);
  obs::set(tracked_keys_g_, static_cast<double>(store_.tracked_keys()));
}

std::optional<double> ExpectedRttLearner::window_median(std::uint64_t key,
                                                        int day) const {
  static thread_local std::vector<double> pool;
  pool.clear();
  store_.collect_window(key, day, config_.window_days, pool);
  if (pool.empty()) return std::nullopt;
  return util::median_inplace(pool);
}

GradedExpectation ExpectedRttLearner::transferred(std::uint64_t key,
                                                  int day) const {
  const auto it = transfers_.find(key);
  if (it == transfers_.end() ||
      day - it->second.day > kTransferMaxAgeDays) {
    return GradedExpectation{};
  }
  return GradedExpectation{it->second.value * kTransferDiscount,
                           BaselineProvenance::kTransferred};
}

bool ExpectedRttLearner::churned_on(std::uint64_t key, int day) const {
  const auto it = transfers_.find(key);
  return it != transfers_.end() && it->second.day <= day &&
         day - it->second.day <= kTransferMaxAgeDays;
}

std::optional<double> ExpectedRttLearner::expected(ExpectedRttKey key,
                                                   int day) const {
  if (day == table_day_) {
    const auto graded = expected_with_provenance(key, day);
    return graded.provenance == BaselineProvenance::kFresh ? graded.value
                                                           : std::nullopt;
  }
  if (!store_.contains(key.packed)) return std::nullopt;
  obs::add(memo_misses_c_);
  return window_median(key.packed, day);
}

GradedExpectation ExpectedRttLearner::expected_with_provenance(
    ExpectedRttKey key, int day) const {
  if (day == table_day_) {
    obs::add(memo_hits_c_);
    const auto it = table_.find(key.packed);
    return it == table_.end() ? GradedExpectation{} : it->second.graded;
  }
  if (auto fresh = expected(key, day)) {
    return GradedExpectation{fresh, BaselineProvenance::kFresh};
  }
  return transferred(key.packed, day);
}

bool ExpectedRttLearner::transfer_baseline(ExpectedRttKey from_key,
                                           ExpectedRttKey to_key, int day) {
  if (from_key == to_key) return false;
  // Capture the source value NOW — eager capture is what makes the transfer
  // survive the source path's history being evicted afterwards.
  double value = 0.0;
  if (const auto fresh = expected(from_key, day)) {
    value = *fresh;
  } else if (const auto chained = transferred(from_key.packed, day).value) {
    // Chained transfer (the path churned twice inside the age limit): one
    // more discount compounds at read time.
    value = *chained;
  } else {
    return false;  // source has nothing usable
  }
  // No-clobber: a strictly fresher transfer must not be overwritten by a
  // replayed or late-delivered churn event. A target with real window
  // history still gets the entry recorded — serving always prefers the
  // fresh median (expected_with_provenance), so the entry cannot clobber
  // anything, but it marks the key as recently churned (the soft-badness
  // corroboration signal) and survives the fresh history being evicted.
  if (const auto it = transfers_.find(to_key.packed);
      it != transfers_.end() && it->second.day > day) {
    return false;
  }
  transfers_[to_key.packed] =
      TransferEntry{.day = day, .value = value, .from_key = from_key.packed};
  // Whatever day the event is dated, the frozen day's answers for the
  // target change with it.
  if (table_day_ != INT_MIN) patch_transfer_row(to_key.packed);
  return true;
}

bool ExpectedRttLearner::recently_churned(ExpectedRttKey key, int day) const {
  if (day == table_day_) {
    const auto it = table_.find(key.packed);
    return it != table_.end() && it->second.churned;
  }
  return churned_on(key.packed, day);
}

std::size_t ExpectedRttLearner::history_size(ExpectedRttKey key,
                                             int day) const {
  return store_.window_sample_count(key.packed, day, config_.window_days);
}

void ExpectedRttLearner::evict_stale(int day) {
  // Transfers past the age limit stopped being served already; drop them so
  // churned-away paths don't grow the side table forever.
  for (auto it = transfers_.begin(); it != transfers_.end();) {
    if (day - it->second.day > kTransferMaxAgeDays) {
      it = transfers_.erase(it);
    } else {
      ++it;
    }
  }
  obs::add(evictions_c_, store_.evict_stale(day - config_.window_days));
  obs::set(tracked_keys_g_, static_cast<double>(store_.tracked_keys()));
  build_table(day);
}

void ExpectedRttLearner::freeze_day(int day) {
  if (day != table_day_) build_table(day);
}

void ExpectedRttLearner::build_table(int day) {
  table_.clear();
  table_day_ = day;
  store_.for_each_key([&](std::uint64_t key) {
    if (const auto median = window_median(key, day)) {
      table_[key].graded = {median, BaselineProvenance::kFresh};
    }
  });
  for (const auto& [key, entry] : transfers_) patch_transfer_row(key);
}

void ExpectedRttLearner::patch_transfer_row(std::uint64_t key) {
  DayRow& row = table_[key];
  if (row.graded.provenance != BaselineProvenance::kFresh) {
    row.graded = transferred(key, table_day_);
  }
  row.churned = churned_on(key, table_day_);
}

// Learner payload format 2: format varint, the backend varint (always 1 —
// columnar; 0 marked state of the removed hash-map backend), the transfer
// side table, then the ReservoirStore payload. Format 1 lacks the table.
void ExpectedRttLearner::save_state(store::SnapshotWriter& writer) const {
  std::string& out = writer.section("learner");
  store::put_varint(out, 2);  // learner payload format
  store::put_varint(out, 1);  // backend: columnar
  // Transfers go BEFORE the store payload: ReservoirStore::restore consumes
  // to the end of the section (its own expect_done).
  store::put_varint(out, transfers_.size());
  std::uint64_t prev = 0;
  for (const auto& [key, entry] : transfers_) {
    store::put_varint(out, key - prev);
    prev = key;
    store::put_svarint(out, entry.day);
    store::put_f64(out, entry.value);
    store::put_varint(out, entry.from_key);
  }
  store_.save(out);
}

void ExpectedRttLearner::restore_state(const store::SnapshotReader& reader) {
  store::ByteReader in = reader.section("learner");
  const std::uint64_t format = in.varint();
  if (format != 1 && format != 2) {
    in.fail("unsupported learner payload format " + std::to_string(format));
  }
  const std::uint64_t backend = in.varint();
  if (backend == 0) {
    in.fail("snapshot holds hash-map learner state; the hash-map backend was "
            "removed (only columnar snapshots restore)");
  }
  if (backend != 1) {
    in.fail("unknown learner backend " + std::to_string(backend));
  }
  std::map<std::uint64_t, TransferEntry> transfers;
  if (format >= 2) {
    const std::size_t n = in.count("transfer count");
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      prev += in.varint();
      TransferEntry entry;
      const std::int64_t day64 = in.svarint();
      if (day64 < 0 || day64 > INT_MAX) in.fail("transfer day out of range");
      entry.day = static_cast<int>(day64);
      entry.value = in.f64();
      entry.from_key = in.varint();
      if (!transfers.emplace(prev, entry).second) {
        in.fail("duplicate transfer key");
      }
    }
  }
  store_.restore(in);  // consumes the rest of the section, expect_done'd
  transfers_ = std::move(transfers);
  obs::set(tracked_keys_g_, static_cast<double>(store_.tracked_keys()));
  if (table_day_ != INT_MIN) build_table(table_day_);
}

}  // namespace blameit::analysis

#include "core/predictors.h"

#include <algorithm>
#include <climits>
#include <stdexcept>

namespace blameit::core {

DurationPredictor::DurationPredictor(int horizon_buckets)
    : horizon_(horizon_buckets) {
  if (horizon_ < 1) {
    throw std::invalid_argument{"DurationPredictor: horizon must be >= 1"};
  }
}

void DurationPredictor::record_duration(std::uint64_t key,
                                        int duration_buckets) {
  if (duration_buckets < 1) {
    throw std::invalid_argument{"DurationPredictor: duration must be >= 1"};
  }
  per_key_[key].push_back(duration_buckets);
  global_.push_back(duration_buckets);
}

const std::vector<int>& DurationPredictor::pool_for(std::uint64_t key) const {
  const auto it = per_key_.find(key);
  if (it != per_key_.end() && it->second.size() >= kMinKeyHistory) {
    return it->second;
  }
  return global_;
}

double DurationPredictor::expected_remaining_from(
    const std::vector<int>& durations, int elapsed, int horizon) {
  // An issue observed bad for `elapsed` buckets is consistent with any total
  // duration D >= elapsed (it may end exactly now). Then
  //   E[T_extra | D >= elapsed] = Σ_{T=1..horizon} P(D >= elapsed+T | D >=
  //   elapsed)
  // — the paper's Σ P(T|t)·T written as a survival sum.
  std::size_t alive = 0;
  for (const int d : durations) alive += d >= elapsed;
  if (alive == 0) return 1.0;  // outlasted all precedent: assume one more
  double expected = 0.0;
  for (int extra = 1; extra <= horizon; ++extra) {
    std::size_t surviving = 0;
    for (const int d : durations) surviving += d >= elapsed + extra;
    expected += static_cast<double>(surviving) / static_cast<double>(alive);
    if (surviving == 0) break;
  }
  return expected;
}

double DurationPredictor::expected_remaining(std::uint64_t key,
                                             int elapsed_buckets) const {
  if (elapsed_buckets < 1) elapsed_buckets = 1;
  const auto& pool = pool_for(key);
  if (pool.empty()) return 1.0;
  return expected_remaining_from(pool, elapsed_buckets, horizon_);
}

double DurationPredictor::conditional_survival(std::uint64_t key,
                                               int elapsed_buckets,
                                               int extra_buckets) const {
  const auto& pool = pool_for(key);
  std::size_t alive = 0;
  std::size_t surviving = 0;
  for (const int d : pool) {
    alive += d >= elapsed_buckets;
    surviving += d >= elapsed_buckets + extra_buckets;
  }
  if (alive == 0) return 0.0;
  return static_cast<double>(surviving) / static_cast<double>(alive);
}

std::size_t DurationPredictor::history_count(std::uint64_t key) const {
  const auto it = per_key_.find(key);
  return it == per_key_.end() ? 0 : it->second.size();
}

void DurationPredictor::save(std::string& out) const {
  std::vector<std::uint64_t> keys;
  keys.reserve(per_key_.size());
  for (const auto& [key, durations] : per_key_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  store::put_varint(out, keys.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t key : keys) {
    store::put_varint(out, key - prev);
    prev = key;
    const auto& durations = per_key_.at(key);
    store::put_varint(out, durations.size());
    for (const int d : durations) store::put_svarint(out, d);
  }
  store::put_varint(out, global_.size());
  for (const int d : global_) store::put_svarint(out, d);
}

void DurationPredictor::restore(store::ByteReader& in) {
  std::unordered_map<std::uint64_t, std::vector<int>> per_key;
  const std::size_t n_keys = in.count("duration key count");
  per_key.reserve(n_keys);
  std::uint64_t prev = 0;
  for (std::size_t k = 0; k < n_keys; ++k) {
    prev += in.varint();
    const std::size_t n = in.count("duration history length");
    auto& durations = per_key[prev];
    durations.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t d = in.svarint();
      if (d < 1 || d > INT_MAX) in.fail("duration out of range");
      durations.push_back(static_cast<int>(d));
    }
  }
  const std::size_t n_global = in.count("global pool size");
  std::vector<int> global;
  global.reserve(n_global);
  for (std::size_t i = 0; i < n_global; ++i) {
    const std::int64_t d = in.svarint();
    if (d < 1 || d > INT_MAX) in.fail("duration out of range");
    global.push_back(static_cast<int>(d));
  }
  per_key_ = std::move(per_key);
  global_ = std::move(global);
}

ClientVolumePredictor::ClientVolumePredictor(int window_days)
    : window_days_(window_days) {
  if (window_days_ < 1) {
    throw std::invalid_argument{"ClientVolumePredictor: window must be >= 1"};
  }
}

void ClientVolumePredictor::observe(std::uint64_t key, util::TimeBucket bucket,
                                    double users) {
  auto& slot = data_[key][bucket.bucket_of_day()];
  if (!slot.history.empty() && slot.history.back().first == bucket.day()) {
    // Multiple observations within one bucket (e.g. re-feeds): keep the max.
    slot.history.back().second = std::max(slot.history.back().second, users);
    return;
  }
  slot.history.emplace_back(bucket.day(), users);
  while (slot.history.size() >
         static_cast<std::size_t>(window_days_ + 1)) {
    slot.history.pop_front();
  }
}

double ClientVolumePredictor::predict(std::uint64_t key,
                                      util::TimeBucket bucket) const {
  const auto kit = data_.find(key);
  if (kit == data_.end()) return 0.0;
  const auto sit = kit->second.find(bucket.bucket_of_day());
  if (sit == kit->second.end()) return 0.0;
  double sum = 0.0;
  int n = 0;
  for (const auto& [day, users] : sit->second.history) {
    if (day >= bucket.day() || day < bucket.day() - window_days_) continue;
    sum += users;
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

void ClientVolumePredictor::evict_stale(int current_day) {
  for (auto& [key, slots] : data_) {
    for (auto& [bod, slot] : slots) {
      while (!slot.history.empty() &&
             slot.history.front().first < current_day - window_days_) {
        slot.history.pop_front();
      }
    }
  }
}

void ClientVolumePredictor::save(std::string& out) const {
  std::vector<std::uint64_t> keys;
  keys.reserve(data_.size());
  for (const auto& [key, slots] : data_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  store::put_varint(out, keys.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t key : keys) {
    store::put_varint(out, key - prev);
    prev = key;
    const auto& slots = data_.at(key);
    std::vector<int> bods;
    bods.reserve(slots.size());
    for (const auto& [bod, slot] : slots) bods.push_back(bod);
    std::sort(bods.begin(), bods.end());
    store::put_varint(out, bods.size());
    for (const int bod : bods) {
      store::put_svarint(out, bod);
      const auto& history = slots.at(bod).history;
      store::put_varint(out, history.size());
      for (const auto& [day, users] : history) {
        store::put_svarint(out, day);
        store::put_f64(out, users);
      }
    }
  }
}

void ClientVolumePredictor::restore(store::ByteReader& in) {
  std::unordered_map<std::uint64_t, std::unordered_map<int, Slot>> data;
  const std::size_t n_keys = in.count("client key count");
  data.reserve(n_keys);
  std::uint64_t prev = 0;
  for (std::size_t k = 0; k < n_keys; ++k) {
    prev += in.varint();
    auto& slots = data[prev];
    const std::size_t n_slots = in.count("slot count");
    for (std::size_t s = 0; s < n_slots; ++s) {
      const std::int64_t bod = in.svarint();
      if (bod < 0 || bod > INT_MAX) in.fail("bucket-of-day out of range");
      auto& slot = slots[static_cast<int>(bod)];
      const std::size_t n = in.count("slot history length");
      for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t day = in.svarint();
        if (day < 0 || day > INT_MAX) in.fail("history day out of range");
        const double users = in.f64();
        slot.history.emplace_back(static_cast<int>(day), users);
      }
    }
  }
  data_ = std::move(data);
}

}  // namespace blameit::core

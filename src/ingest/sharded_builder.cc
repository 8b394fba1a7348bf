#include "ingest/sharded_builder.h"

#include <cstring>
#include <stdexcept>

namespace blameit::ingest {

namespace {

constexpr std::size_t kInitialTableSlots = 64;
constexpr std::size_t kInitialBlockSlots = 1024;
constexpr std::uint64_t kEmptyBlockKey = ~std::uint64_t{0};

[[nodiscard]] constexpr std::size_t log2_of(std::size_t pow2) noexcept {
  std::size_t n = 0;
  while ((std::size_t{1} << n) < pow2) ++n;
  return n;
}

}  // namespace

ShardedQuartetBuilder::ShardedQuartetBuilder(
    const net::Topology* topology, analysis::BadnessThresholds thresholds,
    int shards, analysis::QuartetBuilderConfig config)
    : topology_(topology), thresholds_(thresholds), config_(config) {
  if (!topology_) {
    throw std::invalid_argument{"ShardedQuartetBuilder: null topology"};
  }
  if (shards < 1) {
    throw std::invalid_argument{"ShardedQuartetBuilder: shards must be >= 1"};
  }
  if (config_.min_samples < 1) {
    throw std::invalid_argument{
        "ShardedQuartetBuilder: min_samples must be >= 1"};
  }
  shards_ = std::vector<Shard>(static_cast<std::size_t>(shards));
  for (auto& shard : shards_) {
    shard.block_cache = shard.arena.allocate_array<BlockSlot>(
        kInitialBlockSlots);
    shard.block_mask = kInitialBlockSlots - 1;
    std::memset(shard.block_cache, 0xFF,
                kInitialBlockSlots * sizeof(BlockSlot));
  }
}

ShardedQuartetBuilder::Slot* ShardedQuartetBuilder::new_slot_array(
    Shard& shard, std::size_t capacity) {
  auto& pool = shard.free_arrays[log2_of(capacity)];
  Slot* slots;
  if (!pool.empty()) {
    slots = pool.back();
    pool.pop_back();
  } else {
    slots = shard.arena.allocate_array<Slot>(capacity);
  }
  // All-ones is the empty-key sentinel, so one memset clears every slot.
  std::memset(slots, 0xFF, capacity * sizeof(Slot));
  return slots;
}

void ShardedQuartetBuilder::recycle_slot_array(Shard& shard, Slot* slots,
                                               std::size_t capacity) {
  shard.free_arrays[log2_of(capacity)].push_back(slots);
}

void ShardedQuartetBuilder::grow_table(Shard& shard, Table& table) {
  const std::size_t old_capacity = table.mask + 1;
  const std::size_t capacity = old_capacity * 2;
  Slot* slots = new_slot_array(shard, capacity);
  const std::size_t mask = capacity - 1;
  for (std::size_t i = 0; i < old_capacity; ++i) {
    const Slot& src = table.slots[i];
    if (src.key == kEmptyKey) continue;
    std::size_t idx = static_cast<std::size_t>(util::mix64(src.key)) & mask;
    while (slots[idx].key != kEmptyKey) idx = (idx + 1) & mask;
    slots[idx] = src;
  }
  recycle_slot_array(shard, table.slots, old_capacity);
  table.slots = slots;
  table.mask = mask;
}

void ShardedQuartetBuilder::grow_block_cache(Shard& shard) {
  const std::size_t old_capacity = shard.block_mask + 1;
  const std::size_t capacity = old_capacity * 2;
  auto* slots = shard.arena.allocate_array<BlockSlot>(capacity);
  std::memset(slots, 0xFF, capacity * sizeof(BlockSlot));
  const std::size_t mask = capacity - 1;
  for (std::size_t i = 0; i < old_capacity; ++i) {
    const BlockSlot& src = shard.block_cache[i];
    if (src.key == kEmptyBlockKey) continue;
    std::size_t idx = static_cast<std::size_t>(util::mix64(src.key)) & mask;
    while (slots[idx].key != kEmptyBlockKey) idx = (idx + 1) & mask;
    slots[idx] = src;
  }
  shard.block_cache = slots;
  shard.block_mask = mask;
}

const net::ClientBlock* ShardedQuartetBuilder::resolve_block(
    Shard& shard, net::Slash24 block) {
  const auto key = static_cast<std::uint64_t>(block.block);
  std::size_t idx =
      static_cast<std::size_t>(util::mix64(key)) & shard.block_mask;
  for (;;) {
    BlockSlot& slot = shard.block_cache[idx];
    if (slot.key == key) return slot.block;
    if (slot.key == kEmptyBlockKey) {
      slot.key = key;
      slot.block = topology_->find_block(block);
      if (++shard.block_count * 10 >= (shard.block_mask + 1) * 7) {
        grow_block_cache(shard);
        // The slot pointer moved; re-resolve through the new table.
        return resolve_block(shard, block);
      }
      return slot.block;
    }
    idx = (idx + 1) & shard.block_mask;
  }
}

void ShardedQuartetBuilder::add(std::size_t shard_index,
                                const analysis::RttRecord& record) {
  Shard& shard = shards_[shard_index];
  const auto block = net::Slash24::of(record.client_ip);
  if (resolve_block(shard, block) == nullptr) {
    ++shard.drops.unknown_blocks;
    return;
  }
  const std::int64_t bucket = util::TimeBucket::of(record.time).index;
  Table* table = shard.last_table;
  if (bucket != shard.last_bucket || table == nullptr) {
    auto [it, inserted] = shard.buckets.try_emplace(bucket);
    table = &it->second;
    if (inserted) {
      table->slots = new_slot_array(shard, kInitialTableSlots);
      table->mask = kInitialTableSlots - 1;
    }
    shard.last_bucket = bucket;
    shard.last_table = table;
  }
  const std::uint64_t key = pack_key(block, record.location, record.device);
  std::size_t idx = static_cast<std::size_t>(util::mix64(key)) & table->mask;
  for (;;) {
    Slot& slot = table->slots[idx];
    if (slot.key == key) {
      ++slot.count;
      slot.sum += record.rtt_ms;
      return;
    }
    if (slot.key == kEmptyKey) {
      slot.key = key;
      slot.count = 1;
      slot.sum = record.rtt_ms;
      if (++table->size * 10 >= (table->mask + 1) * 7) {
        grow_table(shard, *table);
      }
      return;
    }
    idx = (idx + 1) & table->mask;
  }
}

std::vector<util::TimeBucket> ShardedQuartetBuilder::ready_buckets(
    std::size_t shard, util::MinuteTime closed_through) const {
  std::vector<util::TimeBucket> out;
  for (const auto& [index, table] : shards_[shard].buckets) {
    const util::TimeBucket bucket{index};
    if (bucket.next().start() > closed_through) break;  // map is ordered
    out.push_back(bucket);
  }
  return out;
}

std::vector<analysis::Quartet> ShardedQuartetBuilder::take_bucket(
    std::size_t shard_index, util::TimeBucket bucket) {
  Shard& shard = shards_[shard_index];
  const auto it = shard.buckets.find(bucket.index);
  if (it == shard.buckets.end()) return {};
  Table table = it->second;
  shard.buckets.erase(it);
  if (shard.last_bucket == bucket.index) {
    shard.last_table = nullptr;
    shard.last_bucket = std::int64_t{-1} << 40;
  }

  std::vector<analysis::Quartet> out;
  out.reserve(table.size);
  const std::size_t capacity = table.mask + 1;
  for (std::size_t i = 0; i < capacity; ++i) {
    const Slot& slot = table.slots[i];
    if (slot.key == kEmptyKey) continue;
    if (slot.count < config_.min_samples) {
      ++shard.drops.min_samples;
      shard.drops.min_samples_records += static_cast<std::uint64_t>(slot.count);
      continue;
    }
    const net::Slash24 block24{static_cast<std::uint32_t>(slot.key >> 24)};
    const net::CloudLocationId location{
        static_cast<std::uint16_t>((slot.key >> 8) & 0xFFFF)};
    const auto device = static_cast<net::DeviceClass>(slot.key & 0xFF);
    // Present and non-null: unknown /24s never enter an accumulator.
    const net::ClientBlock* block = resolve_block(shard, block24);
    const auto* route =
        topology_->routing().route_for(location, block24, bucket.start());
    if (!route) continue;  // same skip as QuartetBuilder::take_bucket
    analysis::Quartet q;
    q.key = analysis::QuartetKey{.block = block24,
                                 .location = location,
                                 .device = device,
                                 .bucket = bucket};
    q.sample_count = slot.count;
    q.mean_rtt_ms = slot.sum / slot.count;
    q.middle = route->middle;
    q.client_as = block->client_as;
    q.region = block->region;
    q.bad = q.mean_rtt_ms > thresholds_.threshold(block->region, device);
    out.push_back(q);
  }
  recycle_slot_array(shard, table.slots, capacity);
  return out;
}

std::size_t ShardedQuartetBuilder::pending(std::size_t shard) const {
  std::size_t n = 0;
  for (const auto& [index, table] : shards_[shard].buckets) n += table.size;
  return n;
}

}  // namespace blameit::ingest

// Edge cases for the columnar state store and its snapshot container: the
// scenarios most likely to corrupt state silently — empty snapshots, single-
// key blocks, memtable→block merges right at the grow boundary, and torn or
// bit-flipped snapshot files (which must fail loudly, naming the offset).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "store/encoding.h"
#include "store/reservoir_store.h"
#include "store/snapshot.h"

namespace blameit::store {
namespace {

TEST(SnapshotContainer, EmptySnapshotRoundTrips) {
  SnapshotWriter writer;
  const std::string bytes = writer.serialize();
  const auto reader = SnapshotReader::from_bytes(bytes, "<empty>");
  EXPECT_FALSE(reader.has_section("anything"));
}

TEST(SnapshotContainer, SectionsRoundTripByName) {
  SnapshotWriter writer;
  put_varint(writer.section("alpha"), 42);
  auto& beta = writer.section("beta");
  put_svarint(beta, -7);
  put_f64(beta, 2.5);

  const auto reader = SnapshotReader::from_bytes(writer.serialize(), "<rt>");
  EXPECT_TRUE(reader.has_section("alpha"));
  EXPECT_TRUE(reader.has_section("beta"));
  EXPECT_FALSE(reader.has_section("gamma"));

  auto a = reader.section("alpha");
  EXPECT_EQ(a.varint(), 42u);
  a.expect_done();
  auto b = reader.section("beta");
  EXPECT_EQ(b.svarint(), -7);
  EXPECT_EQ(b.f64(), 2.5);
  b.expect_done();
}

TEST(SnapshotContainer, MissingSectionNamesItAndTheOrigin) {
  SnapshotWriter writer;
  writer.section("present");
  const auto reader =
      SnapshotReader::from_bytes(writer.serialize(), "<origin>");
  try {
    (void)reader.section("absent");
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string{e.what()}.find("absent"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("<origin>"), std::string::npos);
  }
}

TEST(SnapshotContainer, CorruptPayloadFailsChecksumNamingSectionAndOffset) {
  SnapshotWriter writer;
  auto& payload = writer.section("learner");
  for (int i = 0; i < 64; ++i) put_varint(payload, 1000 + i);
  std::string bytes = writer.serialize();

  // Flip one bit inside the payload (past the 12-byte header and the
  // section preamble).
  bytes[bytes.size() - 5] ^= 0x10;
  try {
    (void)SnapshotReader::from_bytes(bytes, "<corrupt>");
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("learner"), std::string::npos) << what;
    EXPECT_NE(what.find("checksum"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
}

TEST(SnapshotContainer, TruncatedStreamIsRejected) {
  SnapshotWriter writer;
  auto& payload = writer.section("verdicts");
  for (int i = 0; i < 64; ++i) put_u64(payload, 7777);
  const std::string bytes = writer.serialize();

  // Any truncation point — inside the header, the preamble, or the payload —
  // must be rejected, never parsed as a shorter-but-valid snapshot.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{11}, std::size_t{13},
        bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW((void)SnapshotReader::from_bytes(bytes.substr(0, keep),
                                                  "<truncated>"),
                 SnapshotError)
        << "kept " << keep << " of " << bytes.size();
  }
}

TEST(SnapshotContainer, WrongMagicAndVersionAreRejected) {
  SnapshotWriter writer;
  writer.section("s");
  std::string bytes = writer.serialize();

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)SnapshotReader::from_bytes(bad_magic, "<magic>"),
               SnapshotError);

  std::string bad_version = bytes;
  bad_version[8] = static_cast<char>(0xEE);  // version u32, little-endian
  EXPECT_THROW((void)SnapshotReader::from_bytes(bad_version, "<version>"),
               SnapshotError);
}

std::vector<double> window(const ReservoirStore& store, std::uint64_t key,
                           int day, int window_days) {
  std::vector<double> pool;
  store.collect_window(key, day, window_days, pool);
  return pool;
}

TEST(ReservoirStore, SingleKeySingleDayBlock) {
  ReservoirStore store;
  store.observe(99, 0, 10.0);
  store.observe(99, 0, 11.0);
  store.observe(99, 1, 12.0);  // rolls day 0 into a one-key immutable block

  EXPECT_EQ(store.block_count(), 1u);
  EXPECT_EQ(store.tracked_keys(), 1u);
  EXPECT_EQ(window(store, 99, 1, 14), (std::vector<double>{10.0, 11.0}));
  EXPECT_EQ(window(store, 99, 2, 14),
            (std::vector<double>{10.0, 11.0, 12.0}));
  EXPECT_TRUE(window(store, 12345, 2, 14).empty());
}

TEST(ReservoirStore, MergeAtGrowBoundaryPreservesEveryRow) {
  // max_blocks = 2: the third frozen day triggers a merge of the block list
  // into one run. Feed exactly enough days to land ON the boundary and one
  // past it, and verify no row is lost or reordered either time.
  ReservoirStore store{{.max_blocks = 2}};
  const std::uint64_t kA = 5;
  const std::uint64_t kB = 6;
  for (int day = 0; day < 4; ++day) {
    store.observe(kA, day, 100.0 + day);
    if (day % 2 == 0) store.observe(kB, day, 200.0 + day);
  }
  // Days 0..2 are frozen (3 blocks > max 2 → merged); day 3 is the memtable.
  EXPECT_EQ(store.block_count(), 1u);
  EXPECT_EQ(window(store, kA, 4, 14),
            (std::vector<double>{100.0, 101.0, 102.0, 103.0}));
  EXPECT_EQ(window(store, kB, 4, 14), (std::vector<double>{200.0, 202.0}));

  // One more rollover: the merged run + the day-3 block again exceed the
  // bound the NEXT freeze, exercising merge-of-merged.
  store.observe(kA, 4, 104.0);
  store.observe(kA, 5, 105.0);
  EXPECT_EQ(window(store, kA, 6, 14),
            (std::vector<double>{100.0, 101.0, 102.0, 103.0, 104.0, 105.0}));
  EXPECT_EQ(store.total_rows(), 8u);  // includes the day-5 memtable row
}

TEST(ReservoirStore, MergedAndUnmergedBlocksReadAndSaveAlike) {
  // Same feed into a store that merges every few days and one that never
  // merges: identical window pools and identical save() bytes (the normal
  // form hides the block structure).
  const auto feed = [](ReservoirStore& store) {
    for (int day = 0; day < 12; ++day) {
      for (std::uint64_t key = 0; key < 16; ++key) {
        store.observe(key, day, static_cast<double>(day * 100 + key));
      }
    }
  };
  ReservoirStore merging{{.max_blocks = 3}};
  ReservoirStore unmerged{{.max_blocks = 64}};
  feed(merging);
  feed(unmerged);
  ASSERT_LT(merging.block_count(), unmerged.block_count());

  for (std::uint64_t key = 0; key < 16; ++key) {
    EXPECT_EQ(window(merging, key, 12, 14), window(unmerged, key, 12, 14))
        << "key " << key;
  }
  std::string a;
  std::string b;
  merging.save(a);
  unmerged.save(b);
  EXPECT_EQ(a, b);
}

TEST(ReservoirStore, SaveRestoreRoundTripIncludingMemtable) {
  ReservoirStore store{{.max_blocks = 2}};
  for (int day = 0; day < 5; ++day) {
    for (std::uint64_t key = 0; key < 8; ++key) {
      store.observe(key, day, static_cast<double>(day * 10 + key));
    }
  }
  std::string bytes;
  store.save(bytes);

  ReservoirStore restored{{.max_blocks = 2}};
  ByteReader reader{bytes, 0, "<mem>"};
  restored.restore(reader);
  reader.expect_done();

  EXPECT_EQ(restored.tracked_keys(), store.tracked_keys());
  for (std::uint64_t key = 0; key < 8; ++key) {
    EXPECT_EQ(window(restored, key, 5, 14), window(store, key, 5, 14));
  }
  // The restored store keeps accepting day-ordered writes where it left off.
  restored.observe(0, 5, 999.0);
  EXPECT_THROW(restored.observe(0, 4, 1.0), std::invalid_argument);
}

TEST(ReservoirStore, EvictStaleDropsWholeWindowAndForgetsKeys) {
  ReservoirStore store;
  store.observe(1, 0, 1.0);
  store.observe(2, 0, 2.0);
  store.observe(1, 5, 3.0);  // key 2 never reappears
  store.observe(1, 6, 4.0);

  EXPECT_EQ(store.tracked_keys(), 2u);
  const std::size_t dropped = store.evict_stale(5);
  EXPECT_EQ(dropped, 2u);  // both day-0 rows
  EXPECT_EQ(store.tracked_keys(), 1u);
  EXPECT_FALSE(store.contains(2));
  EXPECT_EQ(window(store, 1, 7, 14), (std::vector<double>{3.0, 4.0}));
}

TEST(ReservoirStore, RejectsOutOfOrderDays) {
  ReservoirStore store;
  store.observe(1, 3, 1.0);
  EXPECT_THROW(store.observe(1, 2, 1.0), std::invalid_argument);
  store.observe(1, 3, 2.0);  // same day is fine
  store.observe(1, 4, 3.0);
}

/// Restores `payload` (placed at file offset 100 of section "learner") into
/// a fresh store; returns the SnapshotError message, or "" if accepted.
std::string restore_error(std::string_view payload) {
  ReservoirStore store;
  ByteReader reader{payload, 100, "section \"learner\""};
  try {
    store.restore(reader);
  } catch (const SnapshotError& e) {
    return e.what();
  }
  return "";
}

TEST(ReservoirStore, RestoreRejectsRowCountBeyondTheBytesLeft) {
  // 9 bytes declaring 2^40 frozen rows: before the count was bounded by the
  // section's size, restore tried to allocate 8 TiB (std::bad_alloc).
  std::string payload;
  put_varint(payload, 1);                      // format
  put_svarint(payload, 0);                     // memtable day
  put_varint(payload, 0);                      // memtable rows
  put_varint(payload, std::uint64_t{1} << 40);  // frozen rows
  ASSERT_EQ(payload.size(), 9u);
  const std::string error = restore_error(payload);
  EXPECT_NE(error.find("section \"learner\""), std::string::npos) << error;
  EXPECT_NE(error.find("frozen row count"), std::string::npos) << error;
  EXPECT_NE(error.find("at offset 109"), std::string::npos) << error;
}

/// A memtable of two 256-sample rows (the default reservoir cap) whose keys
/// are 7 and 7 + `second_delta`, and no frozen rows.
std::string two_row_memtable(std::uint64_t second_delta) {
  std::string payload;
  put_varint(payload, 1);   // format
  put_svarint(payload, 3);  // memtable day
  put_varint(payload, 2);   // memtable rows
  put_varint(payload, 7);   // key deltas
  put_varint(payload, second_delta);
  for (int r = 0; r < 2; ++r) put_varint(payload, 256);  // seen
  for (int r = 0; r < 2; ++r) put_varint(payload, 256);  // sample counts
  for (int i = 0; i < 512; ++i) put_f64(payload, 1.0 + i);
  put_varint(payload, 0);   // frozen rows
  return payload;
}

TEST(ReservoirStore, RestoreRejectsDuplicateMemtableKey) {
  EXPECT_EQ(restore_error(two_row_memtable(1)), "");
  // Keys {7, 7} used to merge into one 512-sample row over the cap, which
  // the store's own save() output then failed to restore.
  const std::string error = restore_error(two_row_memtable(0));
  EXPECT_NE(error.find("duplicate or unsorted memtable key"),
            std::string::npos)
      << error;
}

/// Frozen rows in the given order, one sample each, behind an empty
/// memtable. Key deltas are written modulo 2^64, as a corrupt file may.
std::string frozen_rows(
    const std::vector<std::pair<std::uint64_t, int>>& rows) {
  std::string payload;
  put_varint(payload, 1);    // format
  put_svarint(payload, 10);  // memtable day
  put_varint(payload, 0);    // memtable rows
  put_varint(payload, rows.size());
  std::uint64_t prev = 0;
  for (const auto& [key, day] : rows) {
    put_varint(payload, key - prev);
    prev = key;
  }
  for (const auto& [key, day] : rows) put_svarint(payload, day);
  for (std::size_t r = 0; r < rows.size(); ++r) put_varint(payload, 1);
  for (std::size_t r = 0; r < rows.size(); ++r) put_f64(payload, 50.0);
  return payload;
}

TEST(ReservoirStore, RestoreRequiresFrozenRowsStrictlyAscendingInKeyDay) {
  EXPECT_EQ(restore_error(frozen_rows({{5, 1}, {5, 2}, {6, 0}})), "");
  for (const auto& rows :
       std::vector<std::vector<std::pair<std::uint64_t, int>>>{
           {{5, 1}, {5, 1}},    // the same ⟨key, day⟩ twice
           {{5, 2}, {5, 1}},    // days descending within a key
           {{6, 1}, {5, 1}}}) {  // keys descending (a wrapped delta)
    const std::string error = restore_error(frozen_rows(rows));
    EXPECT_NE(error.find("frozen rows not strictly ascending"),
              std::string::npos)
        << error;
  }
}

}  // namespace
}  // namespace blameit::store

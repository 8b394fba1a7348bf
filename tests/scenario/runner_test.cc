// End-to-end runner contracts:
//  - the trace digest is byte-identical across runs, the serial and the
//    overlapped analytics step, and ingest shard counts — WITH measurement
//    chaos enabled (chaos decisions hash event identity, never thread/shard
//    layout);
//  - overlapping incidents are scored with the documented precedence
//    (latest-start primary, acceptable set = union of overlap partners'
//    expected categories);
//  - the JSONL manifest carries a copy-pasteable rerun command per failing
//    incident and a trailing summary line with the digest.
#include "scenario/runner.h"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "one_cpu.h"

namespace blameit::scenario {
namespace {

Pack parse(const std::string& text) {
  return parse_pack(util::json::parse(text), "<inline>");
}

// Small records-mode pack: sharded ingest + record-level chaos + one
// detectable incident, sized so a full run stays around a second.
constexpr const char* kChaosPack = R"({
  "name": "determinism_probe",
  "mode": "records",
  "warmup_days": 1,
  "run_days": 1,
  "telemetry_seed": 5,
  "topology": {
    "locations_per_region": 1,
    "eyeballs_per_region": 2,
    "blocks_per_eyeball": 2
  },
  "pipeline": { "expected_rtt_window_days": 1 },
  "ingest": { "shards": 2, "batch_records": 64, "queue_batches": 4 },
  "chaos": {
    "seed": 99,
    "duplicate_record_rate": 0.05,
    "late_record_rate": 0.05
  },
  "incidents": [
    {
      "name": "usa-transit-fault",
      "type": "middle_as",
      "region": "usa",
      "start": "1d02:00",
      "duration_minutes": 120,
      "added_ms": 60.0
    }
  ]
})";

// Restart pack: a tiny run with an incident in flight at the restart step.
// run_pack executes it twice (uninterrupted + snapshot/kill/restore) and
// must find the digests bit-identical.
constexpr const char* kRestartPack = R"({
  "name": "restart_probe",
  "mode": "aggregates",
  "warmup_days": 1,
  "run_days": 1,
  "telemetry_seed": 5,
  "topology": {
    "locations_per_region": 1,
    "eyeballs_per_region": 4,
    "blocks_per_eyeball": 8
  },
  "pipeline": {
    "expected_rtt_window_days": 1
  },
  "restart": { "at": "1d03:00" },
  "incidents": [
    {
      "name": "usa-transit-fault",
      "type": "middle_as",
      "region": "usa",
      "start": "1d02:00",
      "duration_minutes": 120,
      "added_ms": 60.0
    }
  ]
})";

TEST(RunnerRestartTest, MidIncidentRestartRecoversBitIdentical) {
  const auto pack = parse(kRestartPack);
  ASSERT_TRUE(pack.restart.has_value());
  const auto result = run_pack(pack);
  EXPECT_TRUE(result.restarted);
  EXPECT_TRUE(result.restart_ok)
      << "restarted " << result.digest << " vs uninterrupted "
      << result.uninterrupted_digest;
  EXPECT_EQ(result.digest, result.uninterrupted_digest);
  // The restart must not cost the in-flight incident its detection.
  ASSERT_EQ(result.scores.size(), 1u);
  EXPECT_TRUE(result.scores[0].passed);
}

TEST(RunnerRestartTest, RestartedDigestMatchesTheSamePackWithoutRestart) {
  // Dropping the restart stanza (everything else identical) must yield the
  // very same digest — the stanza changes fault-tolerance mechanics, never
  // output.
  const auto with_restart = run_pack(parse(kRestartPack));
  std::string no_restart_text{kRestartPack};
  const auto pos = no_restart_text.find("\"restart\": { \"at\": \"1d03:00\" },");
  ASSERT_NE(pos, std::string::npos);
  no_restart_text.erase(pos, std::string{"\"restart\": { \"at\": \"1d03:00\" },"}
                                 .size());
  const auto without = run_pack(parse(no_restart_text));
  EXPECT_FALSE(without.restarted);
  EXPECT_EQ(without.digest, with_restart.digest);
}

TEST(RunnerDeterminismTest, DigestStableAcrossThreadsAndShardsUnderChaos) {
  const auto pack = parse(kChaosPack);
  const auto base = run_pack(pack);
  ASSERT_EQ(base.digest.size(), 16u);
  EXPECT_GT(base.ingest_records_in, 0u);
  EXPECT_GT(base.steps, 0);

  // The serial leg: the whole run on a thread pinned to one CPU, as under
  // `taskset -c 0`.
  RunResult serial;
  {
    const core::PinnedToOneCpu pin;
    serial = run_pack(pack);
  }
  EXPECT_FALSE(serial.learned_beside_localize)
      << "the serial leg started the learn helper";
  EXPECT_EQ(serial.digest, base.digest) << "serial analytics step";
  for (const int shards : {1, 2, 4, 8}) {
    const auto r = run_pack(pack, {.ingest_shards = shards});
    EXPECT_EQ(r.digest, base.digest) << "ingest_shards=" << shards;
  }
}

TEST(RunnerOptionsTest, ShardOverrideOutsideOneToSixtyFourIsRejected) {
  const auto pack = parse(kChaosPack);
  for (const int shards : {65, -1}) {
    try {
      (void)run_pack(pack, {.ingest_shards = shards});
      ADD_FAILURE() << "accepted ingest_shards " << shards;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("ingest_shards"),
                std::string::npos)
          << e.what();
    }
  }
}

// Aggregates-mode pack with a deliberately stacked pair (cloud + middle on
// the same European paths) plus one sub-threshold incident that can never
// be detected — exercising the FAIL path of the manifest.
constexpr const char* kOverlapPack = R"({
  "name": "overlap_probe",
  "mode": "aggregates",
  "warmup_days": 1,
  "run_days": 1,
  "telemetry_seed": 3,
  "pipeline": { "expected_rtt_window_days": 1 },
  "incidents": [
    {
      "name": "europe-edge",
      "type": "cloud_location",
      "region": "europe",
      "start": "1d08:00",
      "duration_minutes": 180,
      "added_ms": 50.0,
      "location_index": 0
    },
    {
      "name": "europe-transit",
      "type": "middle_as",
      "region": "europe",
      "start": "1d09:00",
      "duration_minutes": 150,
      "added_ms": 45.0,
      "transit_index": 0
    },
    {
      "name": "usa-whisper",
      "type": "middle_as",
      "region": "usa",
      "start": "1d04:00",
      "duration_minutes": 90,
      "added_ms": 1.0,
      "transit_index": 0
    }
  ]
})";

class OverlapRunTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pack_ = new Pack{parse(kOverlapPack)};
    result_ = new RunResult{run_pack(*pack_)};
  }
  static void TearDownTestSuite() {
    delete result_;
    delete pack_;
    result_ = nullptr;
    pack_ = nullptr;
  }

  static const IncidentScore& score(const std::string& name) {
    for (const auto& s : result_->scores) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << "no score for " << name;
    static IncidentScore none;
    return none;
  }

  static Pack* pack_;
  static RunResult* result_;
};

Pack* OverlapRunTest::pack_ = nullptr;
RunResult* OverlapRunTest::result_ = nullptr;

TEST_F(OverlapRunTest, OverlappingIncidentsLinkEachOther) {
  const auto& edge = score("europe-edge");
  const auto& transit = score("europe-transit");

  ASSERT_EQ(edge.overlapped_with.size(), 1u);
  EXPECT_EQ(edge.overlapped_with[0], "europe-transit");
  ASSERT_EQ(transit.overlapped_with.size(), 1u);
  EXPECT_EQ(transit.overlapped_with[0], "europe-edge");

  // Latest start owns the shared record stream.
  EXPECT_TRUE(transit.primary);
  EXPECT_FALSE(edge.primary);

  // The non-overlapping incident is its own primary with no partners.
  EXPECT_TRUE(score("usa-whisper").primary);
  EXPECT_TRUE(score("usa-whisper").overlapped_with.empty());
}

TEST_F(OverlapRunTest, AcceptableSetIsUnionOfPartnersExpectations) {
  const auto& edge = score("europe-edge");
  const auto& transit = score("europe-transit");
  EXPECT_EQ(edge.expected, core::Blame::Cloud);
  EXPECT_EQ(transit.expected, core::Blame::Middle);

  // Both detected; each majority must land in {Cloud, Middle} and both
  // therefore pass even though the shared stream can only carry ONE
  // majority category.
  EXPECT_TRUE(edge.detected);
  EXPECT_TRUE(transit.detected);
  for (const auto* s : {&edge, &transit}) {
    EXPECT_TRUE(s->majority == core::Blame::Cloud ||
                s->majority == core::Blame::Middle)
        << s->name;
    EXPECT_TRUE(s->passed) << s->name;
  }

  // The sub-threshold incident is undetected and fails.
  EXPECT_FALSE(score("usa-whisper").detected);
  EXPECT_FALSE(score("usa-whisper").passed);
  EXPECT_EQ(result_->failed, 1);
}

TEST_F(OverlapRunTest, DigestReproducesExactly) {
  const auto again = run_pack(*pack_);
  EXPECT_EQ(again.digest, result_->digest);
  EXPECT_EQ(again.blames_total, result_->blames_total);
}

TEST_F(OverlapRunTest, ManifestCarriesRerunCommandsAndSummary) {
  const auto manifest =
      manifest_jsonl(*pack_, *result_, "packs/overlap_probe.json");
  std::istringstream in{manifest};
  std::string line;
  int lines = 0;
  bool saw_rerun = false;
  bool saw_summary = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    // Every line is a standalone JSON object.
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    if (line.find("\"incident\":\"usa-whisper\"") != std::string::npos) {
      EXPECT_NE(line.find("\"passed\":false"), std::string::npos) << line;
      EXPECT_NE(line.find("\"rerun\":"), std::string::npos) << line;
      EXPECT_NE(
          line.find("scenario_runner --pack packs/overlap_probe.json"),
          std::string::npos)
          << line;
      saw_rerun = true;
    }
    if (line.find("\"digest\":\"" + result_->digest + "\"") !=
        std::string::npos) {
      saw_summary = true;
    }
  }
  // One line per incident plus the trailing summary.
  EXPECT_EQ(lines, static_cast<int>(result_->scores.size()) + 1);
  EXPECT_TRUE(saw_rerun);
  EXPECT_TRUE(saw_summary);

  // Passing incidents name their overlap partners instead of hiding the
  // ambiguity in the pass bit.
  EXPECT_NE(manifest.find("\"overlapped_with\":[\"europe-transit\"]"),
            std::string::npos);
}

}  // namespace
}  // namespace blameit::scenario

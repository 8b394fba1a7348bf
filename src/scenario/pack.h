// Declarative scenario packs: a JSON DSL describing a full end-to-end run —
// topology scale, warmup/evaluation window, chaos profile, traffic surges,
// and a fault schedule with ground truth — so regression scenarios live as
// checked-in data instead of hand-written bench main()s.
//
// Validation philosophy: a pack is hand-edited JSON, so every schema error
// must carry (a) the file:line:column of the offending value, (b) the JSON
// path to it (e.g. incidents[2].type), and (c) the allowed values when the
// field is an enumeration. "unknown region" with no pointer is a bug.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.h"
#include "ingest/engine.h"
#include "net/geo.h"
#include "net/topology.h"
#include "sim/chaos.h"
#include "sim/scenario.h"
#include "sim/telemetry.h"
#include "util/json_reader.h"

namespace blameit::scenario {

/// Schema violation in a pack file. The message is already fully formatted
/// ("<file>:<line>:<col>: <path>: <what> (allowed: ...)").
class PackError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Most ingest shards a pack (or a runner override) may ask for.
inline constexpr int kMaxIngestShards = 64;

/// How the pipeline gets its quartets.
enum class FeedMode : std::uint8_t {
  Aggregates,  ///< synchronous QuartetBuilder over generate_aggregates
  Records,     ///< sharded streaming ingest over shuffled raw records
};

[[nodiscard]] std::string_view to_string(FeedMode m) noexcept;

/// Incident archetypes the DSL exposes. Each resolves its target from
/// stable *indices* (e.g. transit_index into the non-dominant transit set,
/// block_index by activity rank) so packs stay valid across topology-seed
/// changes that renumber raw ASNs.
enum class IncidentType : std::uint8_t {
  CloudLocation,
  MiddleAs,
  ClientAs,
  ClientBlock,
  Resteer,
  BgpHijack,
  BgpPathLeak,
  BgpFlapStorm,
};

[[nodiscard]] std::string_view to_string(IncidentType t) noexcept;

/// One scheduled incident, still in DSL terms (indices, not resolved ASes).
struct PackIncident {
  std::string name;
  IncidentType type{};
  net::Region region{};
  util::MinuteTime start;
  int duration_minutes = 0;
  double added_ms = 0.0;

  // Targeting (interpretation depends on type; all default to 0):
  int location_index = 0;  ///< cloud_location / bgp_* disrupt location
  int transit_index = 0;   ///< middle_as: index into non-dominant transits
  int eyeball_index = 0;   ///< client_as: index into the region's eyeballs
  int block_index = 0;     ///< client_block: rank by activity weight

  // resteer only:
  net::Region to_region{};
  int to_location_index = 0;

  // bgp_* only:
  int prefix_count = 0;         ///< 0 = all of the region's prefixes
  int flap_period_minutes = 30;  ///< bgp_flap_storm
};

/// A regional flash-crowd window (multiplies client sample volume).
struct PackSurge {
  util::MinuteTime start;
  int duration_minutes = 0;
  net::Region region{};
  double multiplier = 1.0;
};

/// A scheduled pipeline restart: after the step at `at` completes, the
/// pipeline state is snapshotted, the pipeline is destroyed, and a fresh one
/// is restored from the snapshot before the next step. The simulated
/// internet (topology, faults, chaos, traceroute engine, ingest plumbing)
/// persists across the restart — it is the environment, not the monitor.
/// The runner executes the pack twice (uninterrupted and restarted) and
/// reports whether the two verdict-stream digests match.
struct PackRestart {
  util::MinuteTime at;  ///< must land on a 15-minute step inside the window
};

struct Pack {
  std::string name;
  std::string description;
  FeedMode mode = FeedMode::Aggregates;
  int warmup_days = 3;
  int run_days = 1;

  net::TopologyConfig topology{};
  core::BlameItConfig pipeline{};
  ingest::IngestConfig ingest{};
  sim::ChaosConfig chaos{};
  std::uint64_t telemetry_seed = 7;

  std::vector<PackSurge> surges;
  std::vector<PackIncident> incidents;
  std::optional<PackRestart> restart;
};

/// Parses and validates a pack document. `source_name` is used in error
/// messages (the file path, or "<inline>" for tests). Throws PackError with
/// an actionable message on any schema violation.
[[nodiscard]] Pack parse_pack(const util::json::Value& doc,
                              const std::string& source_name);

/// Loads, parses and validates a pack file. Throws PackError (schema) or
/// util::json::ParseError (malformed JSON) with file:line:column context.
[[nodiscard]] Pack load_pack(const std::string& path);

/// Resolves the DSL incidents of a pack against a topology into fully
/// specified sim::Incidents (ground truth included). Throws PackError when
/// an index is out of range for this topology, naming the incident.
[[nodiscard]] std::vector<sim::Incident> resolve_incidents(
    const Pack& pack, const net::Topology& topology);

/// Region name <-> enum for the DSL (lowercase snake_case).
[[nodiscard]] std::string_view region_token(net::Region r) noexcept;
[[nodiscard]] std::optional<net::Region> parse_region_token(
    std::string_view token) noexcept;

}  // namespace blameit::scenario

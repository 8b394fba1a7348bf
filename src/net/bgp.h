// BGP routing state: announced prefixes, per-⟨cloud location, client prefix⟩
// route timelines, the interned "middle segment" (the paper's BGP path — the
// set of ASes between cloud and client, §3.1), and the churn feed consumed by
// BlameIt's background prober (§5.4).
//
// Routes are time-indexed: a RouteTimeline records the route in effect over
// simulated time, so telemetry generation, traceroute simulation, and the
// BGP listener all observe one consistent routing history.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/as_graph.h"
#include "net/asn.h"
#include "net/cloud.h"
#include "net/ipv4.h"
#include "util/time.h"

namespace blameit::net {

/// Interned identifier for a middle-AS sequence (the paper's "BGP path").
struct MiddleSegmentId {
  std::uint32_t value = 0;
  constexpr auto operator<=>(const MiddleSegmentId&) const = default;
  [[nodiscard]] std::string to_string() const {
    return "mid-" + std::to_string(value);
  }
};

/// Interns middle-AS sequences so quartets can group on a compact id.
class MiddleSegmentInterner {
 public:
  /// Returns the id for the sequence, creating it if new.
  MiddleSegmentId intern(std::span<const AsId> middle_ases);

  /// Lookup without creating; nullopt when the sequence is unknown.
  [[nodiscard]] std::optional<MiddleSegmentId> find(
      std::span<const AsId> middle_ases) const;

  [[nodiscard]] const std::vector<AsId>& ases(MiddleSegmentId id) const;
  [[nodiscard]] std::size_t size() const noexcept { return segments_.size(); }
  [[nodiscard]] std::string describe(MiddleSegmentId id) const;

 private:
  [[nodiscard]] static std::string key_of(std::span<const AsId> ases);

  std::vector<std::vector<AsId>> segments_;
  std::unordered_map<std::string, std::uint32_t> index_;
};

/// A route from one cloud location toward one announced client prefix.
struct RouteEntry {
  Prefix announced;          ///< BGP-announced prefix covering the client /24s
  AsPath full_path;          ///< cloud AS, middle ASes..., client AS
  MiddleSegmentId middle;    ///< interned middle portion of full_path

  /// Middle ASes (full path minus the cloud and client endpoints).
  [[nodiscard]] std::span<const AsId> middle_ases() const noexcept {
    if (full_path.size() < 2) return {};
    return std::span<const AsId>{full_path}.subspan(1, full_path.size() - 2);
  }
  [[nodiscard]] AsId cloud_as() const { return full_path.front(); }
  [[nodiscard]] AsId client_as() const { return full_path.back(); }
};

/// Kinds of routing-change events surfaced by the BGP listener (§5.4).
/// SteerShift is an anycast/traffic-engineering steer: the BGP route is
/// unchanged but clients of the prefix were moved to a different serving
/// location, so their destination-edge latency shifts without any AS fault.
enum class ChurnKind : std::uint8_t { PathChange, Withdraw, Announce,
                                      SteerShift };

struct ChurnEvent {
  util::MinuteTime time;
  CloudLocationId location;
  Prefix prefix;
  ChurnKind kind{};
  std::optional<RouteEntry> old_route;  ///< empty for Announce
  std::optional<RouteEntry> new_route;  ///< empty for Withdraw; for
                                        ///< SteerShift both equal the route
                                        ///< still in effect
};

/// The route history for one ⟨cloud location, announced prefix⟩ pair.
class RouteTimeline {
 public:
  /// Appends a change effective at `when`; times must be non-decreasing.
  void set_route(util::MinuteTime when, RouteEntry route);

  /// Route in effect at `when`; nullopt before the first announcement.
  [[nodiscard]] const RouteEntry* route_at(util::MinuteTime when) const noexcept;

  [[nodiscard]] std::size_t change_count() const noexcept {
    return changes_.size();
  }

 private:
  std::vector<std::pair<util::MinuteTime, RouteEntry>> changes_;
};

/// Global routing state: per-location BGP tables over time plus the churn
/// event log that feeds BlameIt's listener-triggered probing.
class RoutingState {
 public:
  explicit RoutingState(MiddleSegmentInterner* interner);

  /// Installs the initial route for (location, prefix) at time 0 (Announce).
  void announce(CloudLocationId location, const Prefix& prefix,
                AsPath full_path);

  /// Replaces the route at `when` and records a PathChange churn event.
  void change_path(CloudLocationId location, const Prefix& prefix,
                   util::MinuteTime when, AsPath new_full_path);

  /// Records a SteerShift churn event at `when` for clients of `prefix`
  /// served from `location` (anycast re-steer). The route timeline is NOT
  /// touched — steering moves traffic, not BGP state — so events may be
  /// noted out of timeline order.
  void note_steer_shift(CloudLocationId location, const Prefix& prefix,
                        util::MinuteTime when);

  /// Route for a client /24 from a location at a time: that of the longest
  /// covering announced prefix with a route at `when`; null when none.
  /// Costs one timeline lookup per distinct announced length.
  [[nodiscard]] const RouteEntry* route_for(CloudLocationId location,
                                            Slash24 client,
                                            util::MinuteTime when) const;

  /// Direct handle to the (location, prefix) timeline for hot-path callers
  /// that already know the announced prefix (skips the longest-prefix match).
  /// Stable for the lifetime of the RoutingState. Null when unannounced.
  [[nodiscard]] const RouteTimeline* timeline(CloudLocationId location,
                                              const Prefix& prefix) const;

  /// All churn events in [from, to), time-ordered (the BGP listener feed).
  [[nodiscard]] std::vector<ChurnEvent> churn_between(
      util::MinuteTime from, util::MinuteTime to) const;

  /// Announced prefixes at a location (stable order).
  [[nodiscard]] const std::vector<Prefix>& prefixes_at(
      CloudLocationId location) const;

  [[nodiscard]] MiddleSegmentInterner& interner() noexcept {
    return *interner_;
  }
  [[nodiscard]] const MiddleSegmentInterner& interner() const noexcept {
    return *interner_;
  }

  /// Number of (location, prefix) route timelines.
  [[nodiscard]] std::size_t table_size() const noexcept {
    return timelines_.size();
  }

 private:
  struct LocPrefixKey {
    std::uint64_t packed;
    bool operator==(const LocPrefixKey&) const = default;
  };
  struct LocPrefixHash {
    std::size_t operator()(const LocPrefixKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(k.packed);
    }
  };
  [[nodiscard]] static LocPrefixKey key_of(CloudLocationId loc,
                                           const Prefix& p) noexcept;

  [[nodiscard]] RouteEntry make_entry(const Prefix& prefix,
                                      AsPath full_path) const;

  /// One location's announcements, plus route_for's index over them.
  struct LocationPrefixes {
    std::vector<Prefix> prefixes;       ///< announcement order
    std::vector<std::uint8_t> lengths;  ///< distinct, <= 24, longest first
  };

  MiddleSegmentInterner* interner_;
  std::unordered_map<LocPrefixKey, RouteTimeline, LocPrefixHash> timelines_;
  std::unordered_map<CloudLocationId, LocationPrefixes> prefixes_;
  std::vector<ChurnEvent> churn_log_;
};

}  // namespace blameit::net

template <>
struct std::hash<blameit::net::MiddleSegmentId> {
  std::size_t operator()(const blameit::net::MiddleSegmentId& m) const noexcept {
    return std::hash<std::uint32_t>{}(m.value);
  }
};

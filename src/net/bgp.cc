#include "net/bgp.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace blameit::net {

std::string MiddleSegmentInterner::key_of(std::span<const AsId> ases) {
  std::string key;
  key.reserve(ases.size() * 7);
  for (const auto as : ases) {
    key += std::to_string(as.value);
    key += '-';
  }
  return key;
}

MiddleSegmentId MiddleSegmentInterner::intern(std::span<const AsId> ases) {
  auto key = key_of(ases);
  const auto it = index_.find(key);
  if (it != index_.end()) return MiddleSegmentId{it->second};
  const auto id = static_cast<std::uint32_t>(segments_.size());
  segments_.emplace_back(ases.begin(), ases.end());
  index_.emplace(std::move(key), id);
  return MiddleSegmentId{id};
}

std::optional<MiddleSegmentId> MiddleSegmentInterner::find(
    std::span<const AsId> ases) const {
  const auto it = index_.find(key_of(ases));
  if (it == index_.end()) return std::nullopt;
  return MiddleSegmentId{it->second};
}

const std::vector<AsId>& MiddleSegmentInterner::ases(
    MiddleSegmentId id) const {
  if (id.value >= segments_.size()) {
    throw std::out_of_range{"MiddleSegmentInterner: unknown " +
                            id.to_string()};
  }
  return segments_[id.value];
}

std::string MiddleSegmentInterner::describe(MiddleSegmentId id) const {
  std::string out = "[";
  for (const auto as : ases(id)) {
    if (out.size() > 1) out += ' ';
    out += as.to_string();
  }
  return out + "]";
}

void RouteTimeline::set_route(util::MinuteTime when, RouteEntry route) {
  if (!changes_.empty() && when < changes_.back().first) {
    throw std::invalid_argument{"RouteTimeline: changes must be ordered"};
  }
  changes_.emplace_back(when, std::move(route));
}

const RouteEntry* RouteTimeline::route_at(
    util::MinuteTime when) const noexcept {
  // Last change at or before `when`.
  const auto it = std::upper_bound(
      changes_.begin(), changes_.end(), when,
      [](util::MinuteTime t, const auto& entry) { return t < entry.first; });
  if (it == changes_.begin()) return nullptr;
  return &std::prev(it)->second;
}

RoutingState::RoutingState(MiddleSegmentInterner* interner)
    : interner_(interner) {
  if (!interner_) throw std::invalid_argument{"RoutingState: null interner"};
}

RoutingState::LocPrefixKey RoutingState::key_of(CloudLocationId loc,
                                                const Prefix& p) noexcept {
  return LocPrefixKey{(std::uint64_t{loc.value} << 40) |
                      (std::uint64_t{p.network} << 8) | p.length};
}

RouteEntry RoutingState::make_entry(const Prefix& prefix,
                                    AsPath full_path) const {
  if (full_path.size() < 2) {
    throw std::invalid_argument{
        "RoutingState: path must include cloud and client AS"};
  }
  const auto middle = std::span<const AsId>{full_path}.subspan(
      1, full_path.size() - 2);
  const auto id = interner_->intern(middle);
  return RouteEntry{
      .announced = prefix, .full_path = std::move(full_path), .middle = id};
}

void RoutingState::announce(CloudLocationId location, const Prefix& prefix,
                            AsPath full_path) {
  auto entry = make_entry(prefix, std::move(full_path));
  auto& timeline = timelines_[key_of(location, prefix)];
  if (timeline.change_count() != 0) {
    throw std::invalid_argument{"RoutingState: prefix already announced"};
  }
  timeline.set_route(util::MinuteTime{0}, entry);
  auto& table = prefixes_[location];
  table.prefixes.push_back(prefix);
  // Only lengths <= 24 can cover a whole /24 (see Prefix::contains).
  if (prefix.length <= 24) {
    const auto pos = std::lower_bound(table.lengths.begin(),
                                      table.lengths.end(), prefix.length,
                                      std::greater<>{});
    if (pos == table.lengths.end() || *pos != prefix.length) {
      table.lengths.insert(pos, prefix.length);
    }
  }
  churn_log_.push_back(ChurnEvent{.time = util::MinuteTime{0},
                                  .location = location,
                                  .prefix = prefix,
                                  .kind = ChurnKind::Announce,
                                  .old_route = std::nullopt,
                                  .new_route = std::move(entry)});
}

void RoutingState::change_path(CloudLocationId location, const Prefix& prefix,
                               util::MinuteTime when, AsPath new_full_path) {
  const auto it = timelines_.find(key_of(location, prefix));
  if (it == timelines_.end()) {
    throw std::invalid_argument{"RoutingState: change on unannounced prefix"};
  }
  const RouteEntry* old_route = it->second.route_at(when);
  auto entry = make_entry(prefix, std::move(new_full_path));
  churn_log_.push_back(ChurnEvent{
      .time = when,
      .location = location,
      .prefix = prefix,
      .kind = ChurnKind::PathChange,
      .old_route = old_route ? std::optional<RouteEntry>{*old_route}
                             : std::nullopt,
      .new_route = entry});
  it->second.set_route(when, std::move(entry));
}

void RoutingState::note_steer_shift(CloudLocationId location,
                                    const Prefix& prefix,
                                    util::MinuteTime when) {
  const auto it = timelines_.find(key_of(location, prefix));
  if (it == timelines_.end()) {
    throw std::invalid_argument{
        "RoutingState: steer shift on unannounced prefix"};
  }
  const RouteEntry* route = it->second.route_at(when);
  const auto copy = route ? std::optional<RouteEntry>{*route} : std::nullopt;
  churn_log_.push_back(ChurnEvent{.time = when,
                                  .location = location,
                                  .prefix = prefix,
                                  .kind = ChurnKind::SteerShift,
                                  .old_route = copy,
                                  .new_route = copy});
}

const RouteEntry* RoutingState::route_for(CloudLocationId location,
                                          Slash24 client,
                                          util::MinuteTime when) const {
  // Longest-prefix match: the /24's covering prefix of each announced
  // length, longest first. One with no route yet at `when` falls through
  // to the next shorter length.
  const auto pit = prefixes_.find(location);
  if (pit == prefixes_.end()) return nullptr;
  for (const std::uint8_t length : pit->second.lengths) {
    const auto tit =
        timelines_.find(key_of(location, Prefix::of(client.base(), length)));
    if (tit == timelines_.end()) continue;
    if (const RouteEntry* route = tit->second.route_at(when)) return route;
  }
  return nullptr;
}

const RouteTimeline* RoutingState::timeline(CloudLocationId location,
                                            const Prefix& prefix) const {
  const auto it = timelines_.find(key_of(location, prefix));
  return it == timelines_.end() ? nullptr : &it->second;
}

std::vector<ChurnEvent> RoutingState::churn_between(
    util::MinuteTime from, util::MinuteTime to) const {
  std::vector<ChurnEvent> out;
  for (const auto& ev : churn_log_) {
    if (ev.time >= from && ev.time < to) out.push_back(ev);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.time < b.time;
  });
  return out;
}

const std::vector<Prefix>& RoutingState::prefixes_at(
    CloudLocationId location) const {
  static const std::vector<Prefix> kEmpty;
  const auto it = prefixes_.find(location);
  return it == prefixes_.end() ? kEmpty : it->second.prefixes;
}

}  // namespace blameit::net

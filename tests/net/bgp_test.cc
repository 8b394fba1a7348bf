#include "net/bgp.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "net/topology.h"

namespace blameit::net {
namespace {

using util::MinuteTime;

AsPath path3(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return AsPath{AsId{a}, AsId{b}, AsId{c}};
}

TEST(MiddleSegmentInterner, InternIsIdempotent) {
  MiddleSegmentInterner interner;
  const AsPath mid{AsId{10}, AsId{20}};
  const auto id1 = interner.intern(mid);
  const auto id2 = interner.intern(mid);
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(interner.size(), 1u);
  EXPECT_EQ(interner.ases(id1), mid);
}

TEST(MiddleSegmentInterner, DistinctSequencesGetDistinctIds) {
  MiddleSegmentInterner interner;
  const auto a = interner.intern(AsPath{AsId{1}, AsId{2}});
  const auto b = interner.intern(AsPath{AsId{2}, AsId{1}});  // order matters
  const auto c = interner.intern(AsPath{AsId{1}});
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(interner.size(), 3u);
}

TEST(MiddleSegmentInterner, EmptyMiddleIsValid) {
  // Direct cloud-to-client-AS paths (no middle ASes) occur when the cloud
  // peers directly with the eyeball.
  MiddleSegmentInterner interner;
  const auto id = interner.intern(AsPath{});
  EXPECT_TRUE(interner.ases(id).empty());
}

TEST(MiddleSegmentInterner, FindDoesNotCreate) {
  MiddleSegmentInterner interner;
  EXPECT_FALSE(interner.find(AsPath{AsId{5}}).has_value());
  const auto id = interner.intern(AsPath{AsId{5}});
  ASSERT_TRUE(interner.find(AsPath{AsId{5}}).has_value());
  EXPECT_EQ(*interner.find(AsPath{AsId{5}}), id);
}

TEST(MiddleSegmentInterner, UnknownIdThrows) {
  MiddleSegmentInterner interner;
  EXPECT_THROW((void)interner.ases(MiddleSegmentId{3}), std::out_of_range);
}

TEST(RouteTimeline, RouteAtPicksLatestChange) {
  MiddleSegmentInterner interner;
  RouteTimeline timeline;
  RouteEntry r1{.announced = *Prefix::parse("10.0.0.0/22"),
                .full_path = path3(1, 2, 3),
                .middle = interner.intern(AsPath{AsId{2}})};
  RouteEntry r2 = r1;
  r2.full_path = path3(1, 4, 3);
  r2.middle = interner.intern(AsPath{AsId{4}});

  timeline.set_route(MinuteTime{0}, r1);
  timeline.set_route(MinuteTime{100}, r2);

  EXPECT_EQ(timeline.route_at(MinuteTime{0})->middle, r1.middle);
  EXPECT_EQ(timeline.route_at(MinuteTime{99})->middle, r1.middle);
  EXPECT_EQ(timeline.route_at(MinuteTime{100})->middle, r2.middle);
  EXPECT_EQ(timeline.route_at(MinuteTime{5000})->middle, r2.middle);
  EXPECT_EQ(timeline.route_at(MinuteTime{-1}), nullptr);
}

TEST(RouteTimeline, OutOfOrderChangeThrows) {
  MiddleSegmentInterner interner;
  RouteTimeline timeline;
  RouteEntry r{.announced = *Prefix::parse("10.0.0.0/22"),
               .full_path = path3(1, 2, 3),
               .middle = interner.intern(AsPath{AsId{2}})};
  timeline.set_route(MinuteTime{50}, r);
  EXPECT_THROW(timeline.set_route(MinuteTime{49}, r), std::invalid_argument);
}

TEST(RouteEntry, MiddleAsesExcludesEndpoints) {
  MiddleSegmentInterner interner;
  RouteEntry r{.announced = *Prefix::parse("10.0.0.0/22"),
               .full_path = AsPath{AsId{1}, AsId{2}, AsId{3}, AsId{4}},
               .middle = interner.intern(AsPath{AsId{2}, AsId{3}})};
  const auto mid = r.middle_ases();
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_EQ(mid[0], AsId{2});
  EXPECT_EQ(mid[1], AsId{3});
  EXPECT_EQ(r.cloud_as(), AsId{1});
  EXPECT_EQ(r.client_as(), AsId{4});
}

class RoutingStateTest : public ::testing::Test {
 protected:
  RoutingStateTest() : state_(&interner_) {}

  MiddleSegmentInterner interner_;
  RoutingState state_;
  const CloudLocationId loc_{CloudLocationId{1}};
  const Prefix prefix_ = *Prefix::parse("10.1.4.0/22");
};

TEST_F(RoutingStateTest, AnnounceThenRouteFor) {
  state_.announce(loc_, prefix_, path3(1, 2, 3));
  const auto client = Slash24::of(*Ipv4Addr::parse("10.1.5.0"));
  const auto* route = state_.route_for(loc_, client, MinuteTime{10});
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->announced, prefix_);
  EXPECT_EQ(route->client_as(), AsId{3});
}

TEST_F(RoutingStateTest, RouteForMissesOutsidePrefix) {
  state_.announce(loc_, prefix_, path3(1, 2, 3));
  const auto outside = Slash24::of(*Ipv4Addr::parse("10.1.8.0"));
  EXPECT_EQ(state_.route_for(loc_, outside, MinuteTime{10}), nullptr);
}

TEST_F(RoutingStateTest, LongestPrefixMatchWins) {
  state_.announce(loc_, *Prefix::parse("10.1.0.0/16"), path3(1, 9, 3));
  state_.announce(loc_, prefix_, path3(1, 2, 3));
  const auto client = Slash24::of(*Ipv4Addr::parse("10.1.5.0"));
  const auto* route = state_.route_for(loc_, client, MinuteTime{10});
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->announced.length, 22);
  const auto other = Slash24::of(*Ipv4Addr::parse("10.1.200.0"));
  const auto* fallback = state_.route_for(loc_, other, MinuteTime{10});
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(fallback->announced.length, 16);
}

TEST_F(RoutingStateTest, ChangePathRecordsChurnAndUpdatesRoute) {
  state_.announce(loc_, prefix_, path3(1, 2, 3));
  state_.change_path(loc_, prefix_, MinuteTime{500}, path3(1, 7, 3));

  const auto client = Slash24::of(*Ipv4Addr::parse("10.1.4.0"));
  EXPECT_EQ(state_.route_for(loc_, client, MinuteTime{499})->full_path[1],
            AsId{2});
  EXPECT_EQ(state_.route_for(loc_, client, MinuteTime{500})->full_path[1],
            AsId{7});

  const auto churn = state_.churn_between(MinuteTime{1}, MinuteTime{1000});
  ASSERT_EQ(churn.size(), 1u);
  EXPECT_EQ(churn[0].kind, ChurnKind::PathChange);
  ASSERT_TRUE(churn[0].old_route.has_value());
  ASSERT_TRUE(churn[0].new_route.has_value());
  EXPECT_EQ(churn[0].old_route->full_path[1], AsId{2});
  EXPECT_EQ(churn[0].new_route->full_path[1], AsId{7});
}

TEST_F(RoutingStateTest, AnnounceEventsAtTimeZero) {
  state_.announce(loc_, prefix_, path3(1, 2, 3));
  const auto churn = state_.churn_between(MinuteTime{0}, MinuteTime{1});
  ASSERT_EQ(churn.size(), 1u);
  EXPECT_EQ(churn[0].kind, ChurnKind::Announce);
}

TEST_F(RoutingStateTest, DoubleAnnounceThrows) {
  state_.announce(loc_, prefix_, path3(1, 2, 3));
  EXPECT_THROW(state_.announce(loc_, prefix_, path3(1, 2, 3)),
               std::invalid_argument);
}

TEST_F(RoutingStateTest, ChangeOnUnannouncedThrows) {
  EXPECT_THROW(
      state_.change_path(loc_, prefix_, MinuteTime{5}, path3(1, 2, 3)),
      std::invalid_argument);
}

TEST_F(RoutingStateTest, TooShortPathThrows) {
  EXPECT_THROW(state_.announce(loc_, prefix_, AsPath{AsId{1}}),
               std::invalid_argument);
}

TEST_F(RoutingStateTest, PerLocationIsolation) {
  const CloudLocationId other{CloudLocationId{2}};
  state_.announce(loc_, prefix_, path3(1, 2, 3));
  const auto client = Slash24::of(*Ipv4Addr::parse("10.1.4.0"));
  EXPECT_EQ(state_.route_for(other, client, MinuteTime{10}), nullptr);
  EXPECT_TRUE(state_.prefixes_at(other).empty());
  EXPECT_EQ(state_.prefixes_at(loc_).size(), 1u);
}

TEST_F(RoutingStateTest, LongerPrefixWinsWhenAnnouncedFirst) {
  state_.announce(loc_, prefix_, path3(1, 2, 3));
  state_.announce(loc_, *Prefix::parse("10.1.0.0/16"), path3(1, 9, 3));
  const auto* inside = state_.route_for(
      loc_, Slash24::of(*Ipv4Addr::parse("10.1.6.0")), MinuteTime{10});
  ASSERT_NE(inside, nullptr);
  EXPECT_EQ(inside->announced, prefix_);
  const auto* outside = state_.route_for(
      loc_, Slash24::of(*Ipv4Addr::parse("10.1.9.0")), MinuteTime{10});
  ASSERT_NE(outside, nullptr);
  EXPECT_EQ(outside->announced.length, 16);
}

TEST_F(RoutingStateTest, SubSlash24PrefixNeverCoversASlash24) {
  const auto client = Slash24::of(*Ipv4Addr::parse("10.1.5.0"));
  state_.announce(loc_, *Prefix::parse("10.1.5.0/25"), path3(1, 4, 3));
  EXPECT_EQ(state_.route_for(loc_, client, MinuteTime{10}), nullptr);
  state_.announce(loc_, *Prefix::parse("10.1.0.0/16"), path3(1, 9, 3));
  const auto* route = state_.route_for(loc_, client, MinuteTime{10});
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->announced.length, 16);
}

TEST_F(RoutingStateTest, LocationWithNothingAnnouncedHasNoRoute) {
  const auto client = Slash24::of(*Ipv4Addr::parse("10.1.5.0"));
  EXPECT_EQ(state_.route_for(loc_, client, MinuteTime{10}), nullptr);
  EXPECT_TRUE(state_.prefixes_at(loc_).empty());
}

/// The longest-prefix match route_for implemented as a plain scan over the
/// announced prefixes: the oracle for the length-indexed lookup.
const RouteEntry* scan_route_for(const RoutingState& state,
                                 CloudLocationId location, Slash24 client,
                                 MinuteTime when) {
  const RouteEntry* best = nullptr;
  std::uint8_t best_len = 0;
  for (const auto& prefix : state.prefixes_at(location)) {
    if (!prefix.contains(client)) continue;
    if (best != nullptr && prefix.length < best_len) continue;
    const RouteTimeline* timeline = state.timeline(location, prefix);
    if (timeline == nullptr) continue;
    if (const RouteEntry* route = timeline->route_at(when)) {
      best = route;
      best_len = prefix.length;
    }
  }
  return best;
}

// A generated topology (one /22 per four /24s) overlaid with covering /16s,
// /20s and /23s, single /24s and sub-/24 prefixes, then path changes at
// minutes 100 and 500: every ⟨location, /24⟩, inside and just outside the
// topology, resolves to the route the scan picks, before and after each
// change.
TEST(RoutingStateOracle, IndexedLookupMatchesLinearScan) {
  net::TopologyConfig cfg;
  cfg.locations_per_region = 1;
  cfg.eyeballs_per_region = 2;
  const auto topo = net::make_topology(cfg);
  RoutingState& routing = topo->routing();

  std::vector<Slash24> clients;
  for (const auto& block : topo->blocks()) {
    clients.push_back(block.block);
    clients.push_back(Slash24{block.block.block + 256});  // another /16
  }
  const auto& locations = topo->locations();
  std::vector<std::pair<CloudLocationId, Prefix>> changed;
  for (std::size_t li = 0; li < locations.size(); ++li) {
    const CloudLocationId loc = locations[li].id;
    std::set<Prefix> announced{routing.prefixes_at(loc).begin(),
                               routing.prefixes_at(loc).end()};
    // Overlay a different mix per location, so announcement order and the
    // set of lengths vary.
    for (std::size_t bi = li; bi < topo->blocks().size(); bi += 3) {
      const auto& block = topo->blocks()[bi];
      const auto* route = routing.route_for(loc, block.block, MinuteTime{0});
      ASSERT_NE(route, nullptr);
      for (const std::uint8_t len : {16, 20, 23, 24, 25, 26}) {
        if ((bi + len + li) % 4 == 0) continue;
        const Prefix prefix = Prefix::of(block.block.base(), len);
        if (!announced.insert(prefix).second) continue;
        routing.announce(loc, prefix, route->full_path);
      }
    }
    // Change the paths of every fifth prefix, some twice.
    std::size_t i = 0;
    for (const Prefix& prefix : announced) {
      if (i++ % 5 != 0) continue;
      routing.change_path(loc, prefix, MinuteTime{100},
                          path3(1, 7000 + static_cast<std::uint32_t>(i), 3));
      if (i % 2 == 0) {
        routing.change_path(loc, prefix, MinuteTime{500}, path3(1, 8000, 3));
      }
      changed.emplace_back(loc, prefix);
    }
  }
  ASSERT_FALSE(changed.empty());

  std::size_t compared = 0;
  std::size_t found = 0;
  for (const auto& location : locations) {
    for (const Slash24 client : clients) {
      for (const std::int64_t t : {-1, 0, 99, 100, 499, 500, 10000}) {
        const MinuteTime when{t};
        const RouteEntry* expected =
            scan_route_for(routing, location.id, client, when);
        ASSERT_EQ(routing.route_for(location.id, client, when), expected)
            << location.name << " " << client.to_string() << " t=" << t;
        ++compared;
        found += expected != nullptr;
      }
    }
  }
  EXPECT_GT(found, compared / 4);  // the overlay is actually exercised
  EXPECT_LT(found, compared);      // and so are the misses
}

}  // namespace
}  // namespace blameit::net

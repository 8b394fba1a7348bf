#include <gtest/gtest.h>

#include "ops/alert.h"
#include "ops/report.h"

namespace blameit::ops {
namespace {

class OpsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net::TopologyConfig cfg;
    cfg.locations_per_region = 1;
    cfg.eyeballs_per_region = 2;
    cfg.blocks_per_eyeball = 2;
    topo_ = net::make_topology(cfg).release();
  }
  static void TearDownTestSuite() {
    delete topo_;
    topo_ = nullptr;
  }

  static core::StepReport report_with_middle_issue(double impact) {
    core::StepReport report;
    report.now = util::MinuteTime{100};
    core::MiddleIssue issue;
    issue.location = topo_->locations().front().id;
    issue.middle = net::MiddleSegmentId{0};
    issue.client_time_product = impact;
    report.ranked_issues.push_back(issue);
    return report;
  }

  static core::BlameResult blame(core::Blame category, int samples) {
    core::BlameResult r;
    r.blame = category;
    r.quartet.key.location = topo_->locations().front().id;
    r.quartet.client_as = net::AsId{20000};
    r.quartet.sample_count = samples;
    if (category == core::Blame::Cloud) r.faulty_as = topo_->cloud_as();
    if (category == core::Blame::Client) r.faulty_as = net::AsId{20000};
    return r;
  }

  static const net::Topology* topo_;
};

const net::Topology* OpsTest::topo_ = nullptr;

TEST_F(OpsTest, MiddleIssueTicketRoutedToPeering) {
  AlertSink sink;
  const auto tickets = sink.digest(report_with_middle_issue(500.0));
  ASSERT_EQ(tickets.size(), 1u);
  EXPECT_EQ(tickets[0].team, Team::Peering);
  EXPECT_EQ(tickets[0].category, core::Blame::Middle);
  EXPECT_FALSE(tickets[0].id.empty());
}

TEST_F(OpsTest, CloudAndClientBlamesRouteToRightTeams) {
  AlertSink sink;
  core::StepReport report;
  report.now = util::MinuteTime{100};
  for (int i = 0; i < 30; ++i) {
    report.blames.push_back(blame(core::Blame::Cloud, 50));
    report.blames.push_back(blame(core::Blame::Client, 50));
  }
  const auto tickets = sink.digest(report);
  ASSERT_EQ(tickets.size(), 2u);
  bool cloud_infra = false;
  bool client_comms = false;
  for (const auto& t : tickets) {
    cloud_infra |= t.team == Team::CloudInfra;
    client_comms |= t.team == Team::ClientComms;
  }
  EXPECT_TRUE(cloud_infra);
  EXPECT_TRUE(client_comms);
}

TEST_F(OpsTest, RepeatedIssueNotReTicketed) {
  AlertSink sink;
  EXPECT_EQ(sink.digest(report_with_middle_issue(500.0)).size(), 1u);
  EXPECT_EQ(sink.digest(report_with_middle_issue(600.0)).size(), 0u);
  EXPECT_EQ(sink.all_tickets().size(), 1u);
}

TEST_F(OpsTest, LowImpactFilteredOut) {
  AlertConfig cfg;
  cfg.min_impact_users = 10.0;
  AlertSink sink{cfg};
  EXPECT_TRUE(sink.digest(report_with_middle_issue(2.0)).empty());
}

TEST_F(OpsTest, TicketBudgetPerStep) {
  AlertConfig cfg;
  cfg.max_tickets_per_step = 2;
  AlertSink sink{cfg};
  core::StepReport report;
  report.now = util::MinuteTime{100};
  for (std::uint32_t i = 0; i < 6; ++i) {
    core::MiddleIssue issue;
    issue.location = topo_->locations().front().id;
    issue.middle = net::MiddleSegmentId{i};
    issue.client_time_product = 100.0 + i;
    report.ranked_issues.push_back(issue);
  }
  EXPECT_EQ(sink.digest(report).size(), 2u);
}

TEST_F(OpsTest, HighestImpactFirst) {
  AlertConfig cfg;
  cfg.max_tickets_per_step = 1;
  AlertSink sink{cfg};
  core::StepReport report;
  report.now = util::MinuteTime{100};
  for (std::uint32_t i = 0; i < 3; ++i) {
    core::MiddleIssue issue;
    issue.location = topo_->locations().front().id;
    issue.middle = net::MiddleSegmentId{i};
    issue.client_time_product = 100.0 * (i + 1);
    report.ranked_issues.push_back(issue);
  }
  const auto tickets = sink.digest(report);
  ASSERT_EQ(tickets.size(), 1u);
  EXPECT_DOUBLE_EQ(tickets[0].impact, 300.0);
}

TEST_F(OpsTest, RenderStepMentionsBlamesAndProbes) {
  auto report = report_with_middle_issue(42.0);
  report.on_demand_probes = 3;
  report.background_probes = 7;
  report.blames.push_back(blame(core::Blame::Middle, 50));
  const auto text = render_step(report, *topo_);
  EXPECT_NE(text.find("middle=1"), std::string::npos);
  EXPECT_NE(text.find("on-demand=3"), std::string::npos);
  EXPECT_NE(text.find("background=7"), std::string::npos);
  EXPECT_NE(text.find("top issue"), std::string::npos);
}

TEST_F(OpsTest, RenderStepShowsSourceAndResidual) {
  core::StepReport report;
  report.stages.source_ms = 1.5;
  report.stages.learn_ms = 0.25;
  report.stages.localize_ms = 0.5;
  report.stages.background_ms = 0.25;
  report.stages.total_ms = 3.0;
  const auto text = render_step(report, *topo_);
  EXPECT_NE(text.find("source=1.50"), std::string::npos) << text;
  EXPECT_NE(text.find("residual=0.50"), std::string::npos) << text;
  EXPECT_NE(text.find("total=3.00"), std::string::npos) << text;
}

TEST_F(OpsTest, RenderTicketContainsRoutingInfo) {
  AlertSink sink;
  const auto tickets = sink.digest(report_with_middle_issue(500.0));
  ASSERT_EQ(tickets.size(), 1u);
  const auto line = render_ticket(tickets[0], *topo_);
  EXPECT_NE(line.find("BLM-"), std::string::npos);
  EXPECT_NE(line.find("peering"), std::string::npos);
}

}  // namespace
}  // namespace blameit::ops

#include "system/system.h"

#include <gtest/gtest.h>

namespace cloakdb {
namespace {

TimeOfDay Noon() { return TimeOfDay::FromHms(12, 0).value(); }

LbsSystemOptions SmallSystem() {
  LbsSystemOptions options;
  options.num_users = 200;
  options.requirement = {10, 0.0, std::numeric_limits<double>::infinity()};
  options.pois_per_category = 100;
  return options;
}

TEST(MessageCountersTest, RecordsPerChannel) {
  MessageCounters counters;
  counters.Record(Channel::kUserToAnonymizer, 100);
  counters.Record(Channel::kUserToAnonymizer, 100);
  counters.Record(Channel::kServerToUser, 50);
  EXPECT_EQ(counters.MessageCount(Channel::kUserToAnonymizer), 2u);
  EXPECT_EQ(counters.MessageCount(Channel::kServerToUser), 1u);
  EXPECT_EQ(counters.MessageCount(Channel::kAnonymizerToServer), 0u);
  EXPECT_EQ(counters.ByteCount(Channel::kUserToAnonymizer),
            2u * (100 + wire::kHeader));
  EXPECT_EQ(counters.TotalMessages(), 3u);
  counters.Reset();
  EXPECT_EQ(counters.TotalMessages(), 0u);
  EXPECT_EQ(counters.TotalBytes(), 0u);
}

TEST(MessageCountersTest, ToStringListsChannels) {
  MessageCounters counters;
  auto s = counters.ToString();
  EXPECT_NE(s.find("user->anonymizer"), std::string::npos);
  EXPECT_NE(s.find("third-party->server"), std::string::npos);
}

TEST(LbsSystemTest, CreateBuildsFullStack) {
  auto system = LbsSystem::Create(SmallSystem());
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  LbsSystem& sys = *system.value();
  EXPECT_EQ(sys.user_ids().size(), 200u);
  EXPECT_EQ(sys.anonymizer().num_users(), 200u);
  // Every user already streamed an initial cloaked update.
  EXPECT_EQ(sys.server().store().num_private(), 200u);
  EXPECT_EQ(sys.server().store().num_public(), 200u);  // 2 categories x 100
  // Both reporting channels saw traffic.
  EXPECT_GE(sys.counters().MessageCount(Channel::kUserToAnonymizer), 200u);
  EXPECT_GE(sys.counters().MessageCount(Channel::kAnonymizerToServer), 200u);
}

TEST(LbsSystemTest, CreateRejectsZeroUsers) {
  LbsSystemOptions options;
  options.num_users = 0;
  EXPECT_FALSE(LbsSystem::Create(options).ok());
}

TEST(LbsSystemTest, ServerNeverSeesExactLocations) {
  auto system = LbsSystem::Create(SmallSystem());
  ASSERT_TRUE(system.ok());
  LbsSystem& sys = *system.value();
  // For every user: the server-side region contains the true location and,
  // with k=10, is a non-degenerate rectangle.
  size_t nondegenerate = 0;
  for (UserId user : sys.user_ids()) {
    auto pseudonym = sys.anonymizer().PseudonymOf(user);
    ASSERT_TRUE(pseudonym.ok());
    auto region = sys.server().store().GetPrivateRegion(pseudonym.value());
    ASSERT_TRUE(region.ok());
    auto true_loc = sys.TrueLocation(user);
    ASSERT_TRUE(true_loc.ok());
    EXPECT_TRUE(region.value().Contains(true_loc.value()));
    if (region.value().Area() > 0.0) ++nondegenerate;
  }
  EXPECT_EQ(nondegenerate, sys.user_ids().size());
}

TEST(LbsSystemTest, TickMovesAndRefreshesRegions) {
  auto system = LbsSystem::Create(SmallSystem());
  ASSERT_TRUE(system.ok());
  LbsSystem& sys = *system.value();
  for (int step = 0; step < 5; ++step) {
    ASSERT_TRUE(sys.Tick(1.0, Noon()).ok());
  }
  // Regions still cover the moved users.
  for (UserId user : sys.user_ids()) {
    auto pseudonym = sys.anonymizer().PseudonymOf(user);
    auto region = sys.server().store().GetPrivateRegion(pseudonym.value());
    ASSERT_TRUE(region.ok());
    EXPECT_TRUE(region.value().Contains(sys.TrueLocation(user).value()));
  }
}

TEST(LbsSystemTest, PrivateNnAlwaysExact) {
  auto system = LbsSystem::Create(SmallSystem());
  ASSERT_TRUE(system.ok());
  LbsSystem& sys = *system.value();
  for (size_t i = 0; i < 50; ++i) {
    UserId user = sys.user_ids()[i * 4];
    ASSERT_TRUE(
        sys.RunPrivateNn(user, poi_category::kGasStation, Noon()).ok());
  }
  EXPECT_EQ(sys.metrics().nn_queries, 50u);
  EXPECT_DOUBLE_EQ(sys.metrics().NnAccuracy(), 1.0);
  EXPECT_GT(sys.metrics().nn_candidates.mean(), 0.0);
}

TEST(LbsSystemTest, PrivateRangeAlwaysExact) {
  auto system = LbsSystem::Create(SmallSystem());
  ASSERT_TRUE(system.ok());
  LbsSystem& sys = *system.value();
  for (size_t i = 0; i < 50; ++i) {
    UserId user = sys.user_ids()[i * 3];
    ASSERT_TRUE(sys.RunPrivateRange(user, 10.0, poi_category::kRestaurant,
                                    Noon())
                    .ok());
  }
  EXPECT_EQ(sys.metrics().range_queries, 50u);
  EXPECT_DOUBLE_EQ(sys.metrics().RangeAccuracy(), 1.0);
}

TEST(LbsSystemTest, RunQueryDispatchesAllTypes) {
  auto system = LbsSystem::Create(SmallSystem());
  ASSERT_TRUE(system.ok());
  LbsSystem& sys = *system.value();

  QuerySpec range;
  range.type = QueryType::kPrivateRange;
  range.issuer = sys.user_ids()[0];
  range.radius = 8.0;
  range.category = poi_category::kGasStation;
  EXPECT_TRUE(sys.RunQuery(range, Noon()).ok());

  QuerySpec nn;
  nn.type = QueryType::kPrivateNn;
  nn.issuer = sys.user_ids()[1];
  nn.category = poi_category::kGasStation;
  EXPECT_TRUE(sys.RunQuery(nn, Noon()).ok());

  QuerySpec count;
  count.type = QueryType::kPublicCount;
  count.window = Rect(10, 10, 60, 60);
  EXPECT_TRUE(sys.RunQuery(count, Noon()).ok());

  QuerySpec pub_nn;
  pub_nn.type = QueryType::kPublicNn;
  pub_nn.from = {50, 50};
  EXPECT_TRUE(sys.RunQuery(pub_nn, Noon()).ok());

  // Both public queries reached the server (one message each).
  EXPECT_EQ(sys.counters().MessageCount(Channel::kThirdPartyToServer), 2u);
}

TEST(MobileClientTest, DisconnectCleansBothSides) {
  auto system = LbsSystem::Create(SmallSystem());
  ASSERT_TRUE(system.ok());
  LbsSystem& sys = *system.value();
  UserId user = sys.user_ids()[0];
  auto pseudonym = sys.anonymizer().PseudonymOf(user).value();

  MessageCounters counters;
  // Build a standalone client for a fresh user to exercise disconnect.
  auto client = MobileClient::Connect(
      99999, PrivacyProfile::Uniform({5, 0.0,
          std::numeric_limits<double>::infinity()}).value(),
      &sys.anonymizer(), &sys.server(), &counters);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().ReportLocation({50, 50}, Noon()).ok());
  EXPECT_EQ(sys.anonymizer().num_users(), 201u);
  ASSERT_TRUE(client.value().Disconnect().ok());
  EXPECT_EQ(sys.anonymizer().num_users(), 200u);
  // The original user's region is untouched.
  EXPECT_TRUE(sys.server().store().GetPrivateRegion(pseudonym).ok());
}

TEST(LbsSystemTest, BatchTickKeepsAllGuarantees) {
  auto options = SmallSystem();
  options.batch_updates = true;
  options.anonymizer.enable_shared_execution = true;
  auto system = LbsSystem::Create(options);
  ASSERT_TRUE(system.ok());
  LbsSystem& sys = *system.value();
  for (int step = 0; step < 3; ++step) {
    ASSERT_TRUE(sys.Tick(1.0, Noon()).ok());
  }
  // Regions still cover the moved users.
  for (UserId user : sys.user_ids()) {
    auto pseudonym = sys.anonymizer().PseudonymOf(user).value();
    auto region = sys.server().store().GetPrivateRegion(pseudonym);
    ASSERT_TRUE(region.ok());
    EXPECT_TRUE(region.value().Contains(sys.TrueLocation(user).value()));
  }
  // Queries stay exact: the batch path must refresh the device-side fix.
  for (size_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(sys.RunPrivateNn(sys.user_ids()[i * 6],
                                 poi_category::kGasStation, Noon())
                    .ok());
  }
  EXPECT_DOUBLE_EQ(sys.metrics().NnAccuracy(), 1.0);
}

TEST(MobileClientTest, FindKNearestIsExact) {
  auto system = LbsSystem::Create(SmallSystem());
  ASSERT_TRUE(system.ok());
  LbsSystem& sys = *system.value();
  for (size_t i = 0; i < 20; ++i) {
    UserId user = sys.user_ids()[i * 9];
    auto true_loc = sys.TrueLocation(user).value();
    MessageCounters counters;
    // Drive through the system's components directly.
    auto cloak = sys.anonymizer().CloakForQuery(user, Noon());
    ASSERT_TRUE(cloak.ok());
    auto result = sys.server().PrivateKnn(cloak.value().cloaked.region, 3,
                                          poi_category::kGasStation);
    ASSERT_TRUE(result.ok());
    auto refined =
        RefineKnnCandidates(result.value().candidates, true_loc, 3);
    auto index =
        sys.server().store().CategoryIndex(poi_category::kGasStation);
    auto truth = index.value()->KNearest(true_loc, 3);
    ASSERT_EQ(refined.size(), 3u);
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(Distance(true_loc, refined[j].location),
                       Distance(true_loc, truth[j].location));
    }
  }
}

TEST(PseudonymRotationTest, RotationRetiresOldServerRecords) {
  auto options = SmallSystem();
  options.anonymizer.pseudonym_rotation_period = 3;
  auto system = LbsSystem::Create(options);
  ASSERT_TRUE(system.ok());
  LbsSystem& sys = *system.value();
  std::vector<ObjectId> first_pseudonyms;
  for (UserId user : sys.user_ids()) {
    first_pseudonyms.push_back(sys.anonymizer().PseudonymOf(user).value());
  }
  // Enough ticks to trigger at least one rotation for every user.
  for (int step = 0; step < 5; ++step) {
    ASSERT_TRUE(sys.Tick(1.0, Noon()).ok());
  }
  // The server holds exactly one region per user, under the new name.
  EXPECT_EQ(sys.server().store().num_private(), sys.user_ids().size());
  size_t rotated = 0;
  for (size_t i = 0; i < sys.user_ids().size(); ++i) {
    ObjectId current =
        sys.anonymizer().PseudonymOf(sys.user_ids()[i]).value();
    if (current != first_pseudonyms[i]) ++rotated;
    // Old record dropped, new record present and covering the user.
    EXPECT_FALSE(
        sys.server().store().GetPrivateRegion(first_pseudonyms[i]).ok());
    auto region = sys.server().store().GetPrivateRegion(current);
    ASSERT_TRUE(region.ok());
    EXPECT_TRUE(region.value().Contains(
        sys.TrueLocation(sys.user_ids()[i]).value()));
  }
  EXPECT_EQ(rotated, sys.user_ids().size());
}

TEST(PseudonymRotationTest, DisabledByDefault) {
  auto system = LbsSystem::Create(SmallSystem());
  ASSERT_TRUE(system.ok());
  LbsSystem& sys = *system.value();
  UserId user = sys.user_ids()[0];
  ObjectId before = sys.anonymizer().PseudonymOf(user).value();
  for (int step = 0; step < 5; ++step) {
    ASSERT_TRUE(sys.Tick(1.0, Noon()).ok());
  }
  EXPECT_EQ(sys.anonymizer().PseudonymOf(user).value(), before);
}

TEST(MobileClientTest, QueryBeforeReportFails) {
  Rect space(0, 0, 100, 100);
  AnonymizerOptions anon_options;
  anon_options.space = space;
  auto anonymizer = Anonymizer::Create(anon_options);
  ASSERT_TRUE(anonymizer.ok());
  QueryProcessor server(space);
  MessageCounters counters;
  auto client =
      MobileClient::Connect(1, PrivacyProfile::Public(),
                            anonymizer.value().get(), &server, &counters);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client.value().FindNearest(1, Noon()).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace cloakdb

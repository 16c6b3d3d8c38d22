// End-to-end integration: the full Fig. 1 pipeline on CloakDbService under
// every cloaking algorithm, with continuous movement and a mixed query
// workload. The central assertion is the paper's promise: privacy-aware
// processing keeps the *functionality* of the location-based database
// server — private queries refined on the client are always exact.

#include <gtest/gtest.h>

#include <set>

#include "service_world.h"

namespace cloakdb {
namespace {

using e2e::Noon;
using e2e::World;
using e2e::WorldOptions;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::unique_ptr<World> MakeWorld(const WorldOptions& options) {
  auto world = World::Create(options);
  EXPECT_TRUE(world.ok()) << world.status().ToString();
  return world.ok() ? std::move(world).value() : nullptr;
}

/// Pseudonyms of every region the server side holds, read through a
/// whole-space public count (each stored region contributes once).
std::set<ObjectId> ServerPseudonyms(World& world) {
  auto count = world.db().PublicCount(world.options().space);
  EXPECT_TRUE(count.ok());
  std::set<ObjectId> pseudonyms;
  for (const auto& c : count.value().contributions)
    pseudonyms.insert(c.pseudonym);
  EXPECT_EQ(pseudonyms.size(), count.value().naive_count);
  return pseudonyms;
}

uint64_t NnWireBytes(World& world) {
  return world.db().metrics().CounterValue("query.private_nn.wire_bytes");
}

class EndToEndTest : public ::testing::TestWithParam<CloakingKind> {};

TEST_P(EndToEndTest, MovingUsersWithExactQueryAnswers) {
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << shards << " shards");
    WorldOptions options;
    options.num_shards = shards;
    options.anonymizer.algorithm = GetParam();
    auto world = MakeWorld(options);
    ASSERT_NE(world, nullptr);

    size_t queries = 0;
    for (int epoch = 0; epoch < 3; ++epoch) {
      ASSERT_TRUE(world->Tick(2.0).ok());
      for (size_t i = 0; i < 20; ++i) {
        UserId user = world->users()[(epoch * 20 + i * 7) % 150];
        auto nn = world->PrivateNn(user, poi_category::kGasStation);
        auto knn =
            world->PrivateKnn(user, 2 + i % 7, poi_category::kGasStation);
        auto range =
            world->PrivateRange(user, 12.0, poi_category::kRestaurant);
        ASSERT_TRUE(nn.ok() && knn.ok() && range.ok());
        EXPECT_TRUE(nn.value())
            << "cloaking must not cost NN correctness (user " << user << ")";
        EXPECT_TRUE(knn.value()) << "kNN, user " << user;
        EXPECT_TRUE(range.value()) << "range, user " << user;
        ++queries;
      }
    }
    EXPECT_EQ(queries, 60u);
  }
}

TEST_P(EndToEndTest, ServerStateContainsOnlyRegions) {
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << shards << " shards");
    WorldOptions options;
    options.num_shards = shards;
    options.num_users = 100;
    options.requirement = {5, 1.0, kInf};
    options.anonymizer.algorithm = GetParam();
    auto world = MakeWorld(options);
    ASSERT_NE(world, nullptr);
    ASSERT_TRUE(world->Tick(1.0).ok());
    // One region per user and nothing else; every region satisfies
    // A_min = 1 (so it is never an exact point) and covers its user's
    // true location.
    EXPECT_EQ(ServerPseudonyms(*world).size(), world->users().size());
    for (UserId user : world->users()) {
      auto region = world->ServerRegion(user);
      ASSERT_TRUE(region.ok());
      EXPECT_GE(region.value().Area(), 1.0 - 1e-9);
      EXPECT_TRUE(region.value().Contains(world->TrueLocation(user)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, EndToEndTest,
    ::testing::Values(CloakingKind::kNaive, CloakingKind::kMbr,
                      CloakingKind::kQuadtree, CloakingKind::kGrid,
                      CloakingKind::kMultiLevelGrid),
    [](const ::testing::TestParamInfo<CloakingKind>& info) {
      std::string name = CloakingKindName(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(EndToEndWorkloadTest, MixedWorkloadRunsClean) {
  WorldOptions options;
  options.num_users = 200;
  options.requirement = {10, 0.0, kInf};
  auto world = MakeWorld(options);
  ASSERT_NE(world, nullptr);

  WorkloadOptions workload;
  workload.categories = options.categories;
  workload.mix.private_knn = 0.2;  // exercise the k-NN extension too
  workload.mix.public_nn = 0.0;    // a QueryProcessor-level query
  auto gen =
      WorkloadGenerator::Create(options.space, world->users(), workload);
  ASSERT_TRUE(gen.ok());
  Rng rng(123);
  std::set<QueryType> kinds;
  for (const auto& spec : gen.value().Batch(200, &rng)) {
    auto answer = world->Run(spec);
    ASSERT_TRUE(answer.ok()) << QueryTypeName(spec.type);
    EXPECT_TRUE(answer.value()) << QueryTypeName(spec.type);
    kinds.insert(spec.type);
  }
  EXPECT_EQ(kinds.size(), 4u);  // range, NN, k-NN and count all ran
  EXPECT_GT(NnWireBytes(*world), 0u);
}

TEST(EndToEndWorkloadTest, StricterPrivacyCostsMoreCandidateTraffic) {
  // The paper's central trade-off: larger k => larger regions => larger
  // candidate lists => more bytes for the same exact answers.
  auto run = [](uint32_t k) {
    WorldOptions options;
    options.num_users = 300;
    options.seed = 77;
    options.requirement = {k, 0.0, kInf};
    auto world = MakeWorld(options);
    EXPECT_NE(world, nullptr);
    for (size_t i = 0; i < 60; ++i) {
      auto nn =
          world->PrivateNn(world->users()[i * 5], poi_category::kGasStation);
      EXPECT_TRUE(nn.ok() && nn.value());
    }
    return NnWireBytes(*world);
  };
  uint64_t lax = run(2);
  uint64_t strict = run(60);
  EXPECT_GT(strict, lax);
}

TEST(EndToEndWorkloadTest, PublicCountSeesCloakedUncertainty) {
  WorldOptions options;
  options.num_users = 300;
  options.requirement = {20, 0.0, kInf};
  auto world = MakeWorld(options);
  ASSERT_NE(world, nullptr);
  Rect window(25, 25, 75, 75);
  auto count = world->db().PublicCount(window);
  ASSERT_TRUE(count.ok());
  // Ground truth from the simulator.
  int truth = 0;
  for (UserId user : world->users()) {
    if (window.Contains(world->TrueLocation(user))) ++truth;
  }
  EXPECT_GE(truth, count.value().answer.min_count);
  EXPECT_LE(truth, count.value().answer.max_count);
  // The probabilistic estimate lands in the right ballpark while the naive
  // non-zero-size answer overcounts.
  EXPECT_GE(static_cast<double>(count.value().naive_count),
            count.value().answer.expected);
  EXPECT_NEAR(count.value().answer.expected, truth, 0.5 * truth + 10.0);
}

// Whole-system (LbsSystemTest) and per-user (MobileClientTest) checks of
// the Fig. 1 pipeline: 200 users with k = 10 over 100 POIs per category.
WorldOptions SmallWorld() {
  WorldOptions options;
  options.num_users = 200;
  options.requirement = {10, 0.0, kInf};
  options.pois_per_category = 100;
  return options;
}

TEST(LbsSystemTest, CreateBuildsFullStack) {
  auto world = MakeWorld(SmallWorld());
  ASSERT_NE(world, nullptr);
  CloakDbService& db = world->db();
  EXPECT_EQ(world->users().size(), 200u);
  EXPECT_EQ(db.Stats().num_users, 200u);
  // Every user already reported an initial location, cloaked and forwarded.
  EXPECT_EQ(db.Stats().ingest.updates_applied, 200u);
  EXPECT_EQ(ServerPseudonyms(*world).size(), 200u);
  // Both categories are loaded: a whole-space range returns every POI.
  for (Category category : world->options().categories) {
    auto all = db.PrivateRange(world->options().space, 1.0, category);
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all.value().candidates.size(), 100u);
  }
}

TEST(LbsSystemTest, ServerNeverSeesExactLocations) {
  auto world = MakeWorld(SmallWorld());
  ASSERT_NE(world, nullptr);
  // For every user: the server-side region contains the true location and,
  // with k = 10, is a non-degenerate rectangle.
  size_t nondegenerate = 0;
  for (UserId user : world->users()) {
    auto region = world->ServerRegion(user);
    ASSERT_TRUE(region.ok());
    EXPECT_TRUE(region.value().Contains(world->TrueLocation(user)));
    if (region.value().Area() > 0.0) ++nondegenerate;
  }
  EXPECT_EQ(nondegenerate, world->users().size());
}

TEST(LbsSystemTest, TickMovesAndRefreshesRegions) {
  auto world = MakeWorld(SmallWorld());
  ASSERT_NE(world, nullptr);
  std::vector<Point> before;
  for (UserId user : world->users())
    before.push_back(world->TrueLocation(user));
  for (int step = 0; step < 5; ++step) {
    ASSERT_TRUE(world->Tick(1.0).ok());
  }
  EXPECT_EQ(world->db().Stats().ingest.updates_applied, 6u * 200u);
  // Users moved, and their regions still cover them.
  size_t moved = 0;
  for (size_t i = 0; i < world->users().size(); ++i) {
    const UserId user = world->users()[i];
    const Point now = world->TrueLocation(user);
    if (now.x != before[i].x || now.y != before[i].y) ++moved;
    auto region = world->ServerRegion(user);
    ASSERT_TRUE(region.ok());
    EXPECT_TRUE(region.value().Contains(now));
  }
  EXPECT_GT(moved, 0u);
}

TEST(LbsSystemTest, PrivateNnAlwaysExact) {
  auto world = MakeWorld(SmallWorld());
  ASSERT_NE(world, nullptr);
  for (size_t i = 0; i < 50; ++i) {
    auto nn =
        world->PrivateNn(world->users()[i * 4], poi_category::kGasStation);
    ASSERT_TRUE(nn.ok());
    EXPECT_TRUE(nn.value()) << "query " << i;
  }
  const auto& metrics = world->db().metrics();
  EXPECT_EQ(metrics.SnapshotHistogram("query.private_nn.latency_us").count,
            50u);
  EXPECT_GT(metrics.SnapshotHistogram("query.private_nn.candidates").mean(),
            0.0);
}

TEST(LbsSystemTest, PrivateRangeAlwaysExact) {
  auto world = MakeWorld(SmallWorld());
  ASSERT_NE(world, nullptr);
  for (size_t i = 0; i < 50; ++i) {
    auto range = world->PrivateRange(world->users()[i * 3], 10.0,
                                     poi_category::kRestaurant);
    ASSERT_TRUE(range.ok());
    EXPECT_TRUE(range.value()) << "query " << i;
  }
  EXPECT_EQ(world->db()
                .metrics()
                .SnapshotHistogram("query.private_range.latency_us")
                .count,
            50u);
}

TEST(LbsSystemTest, RunQueryDispatchesAllTypes) {
  auto world = MakeWorld(SmallWorld());
  ASSERT_NE(world, nullptr);

  QuerySpec range;
  range.type = QueryType::kPrivateRange;
  range.issuer = world->users()[0];
  range.radius = 8.0;
  range.category = poi_category::kGasStation;

  QuerySpec nn;
  nn.type = QueryType::kPrivateNn;
  nn.issuer = world->users()[1];
  nn.category = poi_category::kGasStation;

  QuerySpec knn = nn;
  knn.type = QueryType::kPrivateKnn;
  knn.knn_k = 4;

  QuerySpec count;
  count.type = QueryType::kPublicCount;
  count.window = Rect(10, 10, 60, 60);

  for (const QuerySpec& spec : {range, nn, knn, count}) {
    auto answer = world->Run(spec);
    ASSERT_TRUE(answer.ok()) << QueryTypeName(spec.type);
    EXPECT_TRUE(answer.value()) << QueryTypeName(spec.type);
  }
  // Public NN is a QueryProcessor-level query the service refuses.
  QuerySpec pub_nn;
  pub_nn.type = QueryType::kPublicNn;
  pub_nn.from = {50, 50};
  EXPECT_EQ(world->Run(pub_nn).status().code(),
            StatusCode::kInvalidArgument);

  // Each query reached the server once.
  const auto& metrics = world->db().metrics();
  for (const char* kind :
       {"private_range", "private_nn", "private_knn", "public_count"}) {
    EXPECT_EQ(metrics
                  .SnapshotHistogram(std::string("query.") + kind +
                                     ".latency_us")
                  .count,
              1u)
        << kind;
  }
}

TEST(LbsSystemTest, BatchTickKeepsAllGuarantees) {
  // Ticks through the update queues: the drains anonymize whole batches
  // with shared execution (Section 5.3).
  WorldOptions options = SmallWorld();
  options.num_shards = 4;
  options.batch_ticks = true;
  options.anonymizer.enable_shared_execution = true;
  auto world = MakeWorld(options);
  ASSERT_NE(world, nullptr);
  for (int step = 0; step < 3; ++step) {
    ASSERT_TRUE(world->Tick(1.0).ok());
  }
  // Regions still cover the moved users and, with k = 10, are never a
  // bare point.
  for (UserId user : world->users()) {
    auto region = world->ServerRegion(user);
    ASSERT_TRUE(region.ok());
    EXPECT_GT(region.value().Area(), 0.0);
    EXPECT_TRUE(region.value().Contains(world->TrueLocation(user)));
  }
  for (size_t i = 0; i < 30; ++i) {
    auto nn =
        world->PrivateNn(world->users()[i * 6], poi_category::kGasStation);
    ASSERT_TRUE(nn.ok());
    EXPECT_TRUE(nn.value());
  }
}

TEST(MobileClientTest, DisconnectCleansBothSides) {
  WorldOptions options = SmallWorld();
  options.num_shards = 4;
  auto world = MakeWorld(options);
  ASSERT_NE(world, nullptr);
  CloakDbService& db = world->db();
  const UserId guest = 99999;
  ASSERT_TRUE(
      db.RegisterUser(guest, PrivacyProfile::Uniform({5, 0.0, kInf}).value())
          .ok());
  ASSERT_TRUE(db.UpdateLocation(guest, {50, 50}, Noon()).ok());
  const ObjectId pseudonym = db.PseudonymOf(guest).value();
  EXPECT_EQ(ServerPseudonyms(*world).count(pseudonym), 1u);
  EXPECT_EQ(db.Stats().num_users, 201u);

  ASSERT_TRUE(db.UnregisterUser(guest).ok());
  EXPECT_EQ(db.Stats().num_users, 200u);
  const std::set<ObjectId> held = ServerPseudonyms(*world);
  EXPECT_EQ(held.count(pseudonym), 0u);
  EXPECT_EQ(held.size(), 200u);
  for (UserId user : world->users()) {
    EXPECT_EQ(held.count(db.PseudonymOf(user).value()), 1u);
  }
}

TEST(MobileClientTest, FindKNearestIsExact) {
  auto world = MakeWorld(SmallWorld());
  ASSERT_NE(world, nullptr);
  for (size_t i = 0; i < 20; ++i) {
    auto knn =
        world->PrivateKnn(world->users()[i * 9], 3, poi_category::kGasStation);
    ASSERT_TRUE(knn.ok());
    EXPECT_TRUE(knn.value()) << "query " << i;
  }
}

TEST(PseudonymRotationTest, RotationRetiresOldServerRecords) {
  WorldOptions options;
  options.num_shards = 4;
  options.num_users = 200;
  options.requirement = {10, 0.0, kInf};
  options.anonymizer.pseudonym_rotation_period = 3;
  auto world = MakeWorld(options);
  ASSERT_NE(world, nullptr);
  std::vector<ObjectId> first;
  for (UserId user : world->users())
    first.push_back(world->db().PseudonymOf(user).value());
  // Enough ticks to rotate every user at least once.
  for (int step = 0; step < 5; ++step) {
    ASSERT_TRUE(world->Tick(1.0).ok());
  }
  // The server holds exactly one region per user, under the new name.
  const std::set<ObjectId> held = ServerPseudonyms(*world);
  EXPECT_EQ(held.size(), world->users().size());
  for (size_t i = 0; i < world->users().size(); ++i) {
    const UserId user = world->users()[i];
    const ObjectId current = world->db().PseudonymOf(user).value();
    EXPECT_NE(current, first[i]);
    EXPECT_EQ(held.count(first[i]), 0u) << "old record of user " << user;
    EXPECT_EQ(held.count(current), 1u) << "new record of user " << user;
    auto region = world->ServerRegion(user);
    ASSERT_TRUE(region.ok());
    EXPECT_TRUE(region.value().Contains(world->TrueLocation(user)));
  }
}

TEST(PseudonymRotationTest, DisabledByDefault) {
  WorldOptions options;
  options.num_users = 200;
  auto world = MakeWorld(options);
  ASSERT_NE(world, nullptr);
  std::vector<ObjectId> before;
  for (UserId user : world->users())
    before.push_back(world->db().PseudonymOf(user).value());
  for (int step = 0; step < 5; ++step) {
    ASSERT_TRUE(world->Tick(1.0).ok());
  }
  for (size_t i = 0; i < world->users().size(); ++i) {
    EXPECT_EQ(world->db().PseudonymOf(world->users()[i]).value(), before[i]);
  }
  EXPECT_EQ(world->db().Stats().ingest.pseudonym_rotations, 0u);
}

TEST(UserLifecycleTest, CloakForQueryBeforeAnyReportFails) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  auto db = CloakDbService::Create(options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->RegisterUser(1, PrivacyProfile::Public()).ok());
  EXPECT_EQ(db.value()->CloakForQuery(1, Noon()).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace cloakdb

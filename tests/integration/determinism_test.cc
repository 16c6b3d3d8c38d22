// Reproducibility guarantees: every randomized component is seeded, so two
// identical runs must agree bit for bit — the property that makes every
// number in EXPERIMENTS.md regenerable.

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>

#include "service/cloak_db_service.h"
#include "service_world.h"
#include "sim/workload.h"

namespace cloakdb {
namespace {

struct RunResult {
  std::vector<Rect> regions;
  uint64_t wire_bytes = 0;
  double nn_candidates_mean = 0.0;
  uint64_t cloaks_computed = 0;
};

// Two shards with synchronous, width-one reports: nothing in the run
// depends on thread timing, so identical seeds must agree bit for bit.
RunResult RunOnce(uint64_t seed) {
  e2e::WorldOptions options;
  options.num_shards = 2;
  options.seed = seed;
  auto world = e2e::World::Create(options).value();
  for (int step = 0; step < 3; ++step) {
    EXPECT_TRUE(world->Tick(1.0).ok());
  }
  WorkloadOptions workload;
  workload.categories = {poi_category::kGasStation};
  workload.mix.public_nn = 0.0;
  auto gen =
      WorkloadGenerator::Create(options.space, world->users(), workload)
          .value();
  Rng rng(seed ^ 0xfeed);
  for (const auto& spec : gen.Batch(60, &rng)) {
    EXPECT_TRUE(world->Run(spec).ok());
  }
  CloakDbService& db = world->db();
  RunResult result;
  for (UserId user : world->users()) {
    result.regions.push_back(world->ServerRegion(user).value());
  }
  for (const char* kind : {"private_range", "private_nn"}) {
    result.wire_bytes +=
        db.metrics().CounterValue(std::string("query.") + kind + ".wire_bytes");
  }
  result.nn_candidates_mean =
      db.metrics().histogram("query.private_nn.candidates")->Snapshot().mean();
  result.cloaks_computed = db.Stats().anonymizer.cloaks_computed;
  return result;
}

TEST(DeterminismTest, IdenticalSeedsGiveIdenticalSystems) {
  auto a = RunOnce(2006);
  auto b = RunOnce(2006);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(a.regions[i], b.regions[i]) << "user index " << i;
  }
  EXPECT_GT(a.wire_bytes, 0u);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_DOUBLE_EQ(a.nn_candidates_mean, b.nn_candidates_mean);
  EXPECT_EQ(a.cloaks_computed, b.cloaks_computed);
}

// --- Service determinism across durability modes --------------------------
//
// The WAL must be a pure observer: running the exact same service workload
// with durability off, async, or fsync gives bit-identical regions and
// pseudonyms — and closing the service mid-workload and recovering from
// disk (the save/restore boundary) continues to the same final state.

struct ServiceRun {
  std::vector<ObjectId> pseudonyms;
  std::vector<Rect> regions;
};

CloakDbServiceOptions ServiceOptions(storage::DurabilityMode mode,
                                     const std::string& data_dir) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = 2;
  options.worker_threads = 1;
  options.anonymizer.algorithm = CloakingKind::kGrid;
  options.durability_mode = mode;
  options.data_dir = data_dir;
  options.checkpoint_interval = 0;
  return options;
}

void DriveWorkload(CloakDbService* db, int phase) {
  if (phase == 0) {
    for (UserId u = 1; u <= 20; ++u) {
      ASSERT_TRUE(
          db->RegisterUser(
                u, PrivacyProfile::Uniform(
                       {3, 0.0, std::numeric_limits<double>::infinity()})
                       .value())
              .ok());
    }
  }
  // One update per Flush: batch composition — which equal-time updates
  // the anonymizer saw together — is part of the answer, and composition
  // is a race between the enqueuing thread and the drain worker. The
  // cross-mode comparison needs width-one batches, which are identical no
  // matter which thread drains first. (Replay of wide racy batches is the
  // recovery oracle's job; the WAL records the composition that ran.)
  Rng rng(2006 + phase);
  for (int round = 0; round < 3; ++round) {
    for (UserId u = 1; u <= 20; ++u) {
      ASSERT_TRUE(db->EnqueueUpdate(u,
                                    Point(rng.Uniform(1.0, 99.0),
                                          rng.Uniform(1.0, 99.0)),
                                    TimeOfDay::FromHms(12, 0).value())
                      .ok());
      ASSERT_TRUE(db->Flush().ok());
    }
  }
}

ServiceRun Observe(CloakDbService* db) {
  ServiceRun run;
  for (UserId u = 1; u <= 20; ++u) {
    run.pseudonyms.push_back(db->PseudonymOf(u).value());
    run.regions.push_back(db->shard(db->ShardOfUser(u))
                              .CurrentRegionOfUser(u)
                              .value());
  }
  return run;
}

void ExpectSameRun(const ServiceRun& a, const ServiceRun& b) {
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(a.pseudonyms[i], b.pseudonyms[i]) << "user index " << i;
    EXPECT_EQ(a.regions[i], b.regions[i]) << "user index " << i;
  }
}

class DurabilityDeterminismTest
    : public ::testing::TestWithParam<storage::DurabilityMode> {};

TEST_P(DurabilityDeterminismTest, ModeDoesNotChangeAnswers) {
  // Baseline: the historical in-memory service.
  auto baseline =
      CloakDbService::Create(
          ServiceOptions(storage::DurabilityMode::kOff, ""))
          .value();
  DriveWorkload(baseline.get(), 0);
  DriveWorkload(baseline.get(), 1);
  const ServiceRun expected = Observe(baseline.get());

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cloakdb_determinism_" +
       std::string(storage::DurabilityModeName(GetParam())) + "_" +
       std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  // Same workload, with a close + recover boundary between the phases.
  {
    auto db = CloakDbService::Create(ServiceOptions(GetParam(), dir))
                  .value();
    DriveWorkload(db.get(), 0);
  }
  {
    auto db = CloakDbService::Create(ServiceOptions(GetParam(), dir))
                  .value();
    EXPECT_TRUE(db->recovery_info().performed);
    DriveWorkload(db.get(), 1);
    ExpectSameRun(Observe(db.get()), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDurableModes, DurabilityDeterminismTest,
                         ::testing::Values(storage::DurabilityMode::kAsync,
                                           storage::DurabilityMode::kFsync),
                         [](const ::testing::TestParamInfo<
                             storage::DurabilityMode>& info) {
                           return storage::DurabilityModeName(info.param);
                         });

TEST(DeterminismTest, DifferentSeedsGiveDifferentSystems) {
  auto a = RunOnce(1);
  auto b = RunOnce(2);
  size_t same = 0;
  for (size_t i = 0; i < std::min(a.regions.size(), b.regions.size());
       ++i) {
    if (a.regions[i] == b.regions[i]) ++same;
  }
  EXPECT_LT(same, a.regions.size() / 2);
}

}  // namespace
}  // namespace cloakdb

// Twin-service oracle for the public index: a CloakDbService that seals its
// POIs into the packed StaticRTree (BulkLoadCategory, + overlay for later
// writes) must answer every query bit-identically to a twin that loads the
// same POIs one by one through AddPublicObject with compaction out of
// reach, so its whole category lives in the dynamic R-tree overlay. This
// holds through bulk loads, post-seal writes, aggressive compaction, and
// the whole private-query surface. The sealed tree is an execution detail
// — never an answer change.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Category kCat = poi_category::kGasStation;

TimeOfDay Noon() { return TimeOfDay::FromHms(12, 0).value(); }

/// Compaction limit above every POI count used here: the overlay twin
/// never seals.
constexpr size_t kNoCompaction = size_t{1} << 20;

std::unique_ptr<CloakDbService> MakeService(size_t compact_limit = 1024) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = 4;
  // One worker keeps update-processing order (and thus cloaked regions)
  // identical across the twins — cloaking is neighbor-dependent.
  options.worker_threads = 1;
  options.static_index_compact_limit = compact_limit;
  auto service = CloakDbService::Create(options);
  EXPECT_TRUE(service.ok());
  return std::move(service).value();
}

std::vector<PublicObject> MakePois(size_t count, uint64_t seed) {
  Rng rng(seed);
  PoiOptions options;
  options.count = count;
  options.category = kCat;
  options.name_prefix = "poi";
  auto pois = GeneratePois(Rect(0, 0, 100, 100), options, &rng);
  EXPECT_TRUE(pois.ok());
  return std::move(pois).value();
}

/// Loads `pois` into the overlay twin one object at a time.
void AddEach(CloakDbService* db, const std::vector<PublicObject>& pois) {
  for (const PublicObject& o : pois) ASSERT_TRUE(db->AddPublicObject(o).ok());
}

std::vector<ObjectId> Ids(const std::vector<PublicObject>& objects) {
  std::vector<ObjectId> ids;
  ids.reserve(objects.size());
  for (const auto& o : objects) ids.push_back(o.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The full query battery, bit-identical across the twins: candidate id
/// sets, fetch radii (computed from index distances), and counts.
void ExpectTwinAnswers(CloakDbService* sealed, CloakDbService* overlay,
                       Rng* rng) {
  ASSERT_TRUE(sealed->Flush().ok());
  ASSERT_TRUE(overlay->Flush().ok());
  for (int trial = 0; trial < 25; ++trial) {
    Point c{rng->Uniform(5, 95), rng->Uniform(5, 95)};
    const Rect cloaked = Rect::CenteredSquare(c, rng->Uniform(0.5, 8.0));

    auto range_s = sealed->PrivateRange(cloaked, 10.0, kCat);
    auto range_o = overlay->PrivateRange(cloaked, 10.0, kCat);
    ASSERT_EQ(range_s.ok(), range_o.ok());
    if (range_s.ok()) {
      EXPECT_EQ(Ids(range_s.value().candidates),
                Ids(range_o.value().candidates));
      EXPECT_EQ(range_s.value().extended_region,
                range_o.value().extended_region);
    }

    auto nn_s = sealed->PrivateNn(cloaked, kCat);
    auto nn_o = overlay->PrivateNn(cloaked, kCat);
    ASSERT_EQ(nn_s.ok(), nn_o.ok());
    if (nn_s.ok()) {
      EXPECT_EQ(Ids(nn_s.value().candidates), Ids(nn_o.value().candidates));
      // The fetch radius comes straight from NearestDistance probes — a
      // quantization leak would show up here first.
      EXPECT_EQ(nn_s.value().fetch_radius, nn_o.value().fetch_radius);
    }

    auto knn_s = sealed->PrivateKnn(cloaked, 5, kCat);
    auto knn_o = overlay->PrivateKnn(cloaked, 5, kCat);
    ASSERT_EQ(knn_s.ok(), knn_o.ok());
    if (knn_s.ok()) {
      EXPECT_EQ(Ids(knn_s.value().candidates), Ids(knn_o.value().candidates));
      EXPECT_EQ(knn_s.value().fetch_radius, knn_o.value().fetch_radius);
    }

    auto count_s = sealed->PublicCount(Rect::CenteredSquare(c, 20.0));
    auto count_o = overlay->PublicCount(Rect::CenteredSquare(c, 20.0));
    ASSERT_EQ(count_s.ok(), count_o.ok());
    if (count_s.ok()) {
      EXPECT_EQ(count_s.value().answer.expected,
                count_o.value().answer.expected);
      EXPECT_EQ(count_s.value().answer.min_count,
                count_o.value().answer.min_count);
      EXPECT_EQ(count_s.value().answer.max_count,
                count_o.value().answer.max_count);
    }
  }
}

class PublicIndexTwinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sealed_db_ = MakeService();
    overlay_db_ = MakeService(kNoCompaction);
    PrivacyProfile profile =
        PrivacyProfile::Uniform({4, 0.0, kInf}).value();
    Rng rng(5);
    // One update per Flush: batch composition is racy against the drain
    // worker (see determinism_test.cc), and cloaking depends on it. The
    // twins need width-one batches to land identical regions.
    for (UserId u = 1; u <= 40; ++u) {
      ASSERT_TRUE(sealed_db_->RegisterUser(u, profile).ok());
      ASSERT_TRUE(overlay_db_->RegisterUser(u, profile).ok());
      Point p{rng.Uniform(5, 95), rng.Uniform(5, 95)};
      ASSERT_TRUE(sealed_db_->EnqueueUpdate(u, p, Noon()).ok());
      ASSERT_TRUE(sealed_db_->Flush().ok());
      ASSERT_TRUE(overlay_db_->EnqueueUpdate(u, p, Noon()).ok());
      ASSERT_TRUE(overlay_db_->Flush().ok());
    }
  }

  std::unique_ptr<CloakDbService> sealed_db_;
  std::unique_ptr<CloakDbService> overlay_db_;
};

TEST_F(PublicIndexTwinTest, BulkLoadedWorldAnswersIdentically) {
  auto pois = MakePois(3000, 11);
  ASSERT_TRUE(sealed_db_->BulkLoadCategory(kCat, pois).ok());
  AddEach(overlay_db_.get(), pois);
  Rng rng(12);
  ExpectTwinAnswers(sealed_db_.get(), overlay_db_.get(), &rng);
}

TEST_F(PublicIndexTwinTest, PostSealWritesStayInvisible) {
  auto pois = MakePois(1500, 21);
  ASSERT_TRUE(sealed_db_->BulkLoadCategory(kCat, pois).ok());
  AddEach(overlay_db_.get(), pois);

  // Post-seal adds land in the sealed service's spill overlay; the twins
  // must stay identical while it fills.
  Rng rng(22);
  for (ObjectId id = 100000; id < 100300; ++id) {
    PublicObject o;
    o.id = id;
    o.category = kCat;
    o.location = Point{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    o.name = "late";
    ASSERT_TRUE(sealed_db_->AddPublicObject(o).ok());
    ASSERT_TRUE(overlay_db_->AddPublicObject(o).ok());
  }
  ExpectTwinAnswers(sealed_db_.get(), overlay_db_.get(), &rng);
}

TEST_F(PublicIndexTwinTest, AggressiveCompactionChangesNothing) {
  // A tiny compact limit forces many STR rebuilds mid-stream. The twin
  // must share the user population, so both services are seeded from the
  // same stream here.
  auto aggressive = MakeService(4);
  auto overlay = MakeService(kNoCompaction);
  PrivacyProfile profile = PrivacyProfile::Uniform({4, 0.0, kInf}).value();
  Rng rng(31);
  for (UserId u = 1; u <= 40; ++u) {
    ASSERT_TRUE(aggressive->RegisterUser(u, profile).ok());
    ASSERT_TRUE(overlay->RegisterUser(u, profile).ok());
    Point p{rng.Uniform(5, 95), rng.Uniform(5, 95)};
    ASSERT_TRUE(aggressive->EnqueueUpdate(u, p, Noon()).ok());
    ASSERT_TRUE(aggressive->Flush().ok());
    ASSERT_TRUE(overlay->EnqueueUpdate(u, p, Noon()).ok());
    ASSERT_TRUE(overlay->Flush().ok());
  }

  auto pois = MakePois(800, 32);
  ASSERT_TRUE(aggressive->BulkLoadCategory(kCat, pois).ok());
  AddEach(overlay.get(), pois);
  Rng rng2(33);
  for (ObjectId id = 200000; id < 200100; ++id) {
    PublicObject o;
    o.id = id;
    o.category = kCat;
    o.location = Point{rng2.Uniform(0, 100), rng2.Uniform(0, 100)};
    o.name = "late";
    ASSERT_TRUE(aggressive->AddPublicObject(o).ok());
    ASSERT_TRUE(overlay->AddPublicObject(o).ok());
  }
  ExpectTwinAnswers(aggressive.get(), overlay.get(), &rng2);
}

TEST_F(PublicIndexTwinTest, SharedExecutionBatchesMatchAcrossModes) {
  auto pois = MakePois(1200, 41);
  ASSERT_TRUE(sealed_db_->BulkLoadCategory(kCat, pois).ok());
  AddEach(overlay_db_.get(), pois);

  Rng rng(42);
  std::vector<BatchQuery> batch;
  for (int i = 0; i < 30; ++i) {
    BatchQuery q;
    Point c{rng.Uniform(10, 90), rng.Uniform(10, 90)};
    q.request.kind = static_cast<QueryKind>(i % 3);
    q.request.region = Rect::CenteredSquare(c, 3.0);
    q.request.radius = 12.0;
    q.request.k = 4;
    q.request.category = kCat;
    batch.push_back(q);
  }
  auto res_s = sealed_db_->ExecuteQueryBatch(batch);
  auto res_o = overlay_db_->ExecuteQueryBatch(batch);
  ASSERT_EQ(res_s.size(), res_o.size());
  for (size_t i = 0; i < res_s.size(); ++i) {
    ASSERT_EQ(res_s[i].ok(), res_o[i].ok()) << "query " << i;
    if (!res_s[i].ok()) continue;
    EXPECT_EQ(Ids(res_s[i].candidates), Ids(res_o[i].candidates))
        << "query " << i;
  }
}

}  // namespace
}  // namespace cloakdb

// The paper's Fig. 1 end to end on CloakDbService, shared by the
// integration suites and bench_fig1_architecture.
//
// A generated population moves under RandomWaypointModel, which alone
// holds the true locations. Every tick reports them through the service:
// the trusted anonymizer cloaks them and the privacy-aware server stores
// only (pseudonym, region). A private query is cloaked with CloakForQuery,
// answered by the service, refined on the client against the true
// location, and checked against a brute-force scan of the generated POIs,
// which is the oracle.

#ifndef CLOAKDB_TESTS_INTEGRATION_SERVICE_WORLD_H_
#define CLOAKDB_TESTS_INTEGRATION_SERVICE_WORLD_H_

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "geom/distance.h"
#include "server/private_queries.h"
#include "service/cloak_db_service.h"
#include "sim/movement.h"
#include "sim/poi.h"
#include "sim/population.h"
#include "sim/workload.h"

namespace cloakdb {
namespace e2e {

inline TimeOfDay Noon() { return TimeOfDay::FromHms(12, 0).value(); }

struct WorldOptions {
  Rect space{0.0, 0.0, 100.0, 100.0};
  uint32_t num_shards = 1;
  size_t num_users = 150;
  /// Privacy profile of every generated user.
  PrivacyRequirement requirement{8, 0.0,
                                 std::numeric_limits<double>::infinity()};
  /// Shard anonymizer template (the service overrides `space`).
  AnonymizerOptions anonymizer;
  size_t pois_per_category = 80;
  std::vector<Category> categories = {poi_category::kGasStation,
                                      poi_category::kRestaurant};
  uint64_t seed = 0xC10ACULL;
  /// Report a tick as one EnqueueUpdate per user plus one Flush, so the
  /// drains batch them. Off: one synchronous UpdateLocation per user, i.e.
  /// width-one batches whose composition cannot race, so answers do not
  /// depend on thread timing.
  bool batch_ticks = false;
};

class World {
 public:
  /// Starts the service, loads the POIs, registers the users and reports
  /// their initial locations.
  static Result<std::unique_ptr<World>> Create(const WorldOptions& options) {
    std::unique_ptr<World> world(new World(options));
    CloakDbServiceOptions service;
    service.space = options.space;
    service.num_shards = options.num_shards;
    service.anonymizer = options.anonymizer;
    auto db = CloakDbService::Create(service);
    if (!db.ok()) return db.status();
    world->db_ = std::move(db).value();

    Rng rng(options.seed);
    for (Category category : options.categories) {
      PoiOptions poi;
      poi.count = options.pois_per_category;
      poi.category = category;
      poi.first_id = 1'000'000ULL * (category + 1);
      auto pois = GeneratePois(options.space, poi, &rng);
      if (!pois.ok()) return pois.status();
      CLOAKDB_RETURN_IF_ERROR(
          world->db_->BulkLoadCategory(category, pois.value()));
      world->pois_.insert(world->pois_.end(), pois.value().begin(),
                          pois.value().end());
    }

    auto profile = PrivacyProfile::Uniform(options.requirement);
    if (!profile.ok()) return profile.status();
    PopulationOptions population;
    population.num_users = options.num_users;
    population.model = PopulationModel::kGaussianClusters;
    auto users = GeneratePopulation(options.space, population, &rng);
    if (!users.ok()) return users.status();
    for (const auto& user : users.value()) {
      CLOAKDB_RETURN_IF_ERROR(world->movement_.AddUser(user.id, user.location));
      CLOAKDB_RETURN_IF_ERROR(
          world->db_->RegisterUser(user.id, profile.value()));
      world->users_.push_back(user.id);
    }
    CLOAKDB_RETURN_IF_ERROR(world->Tick(0.0));
    return world;
  }

  /// Moves every user by `dt` and reports the new locations.
  Status Tick(double dt) {
    movement_.Step(dt);
    for (const auto& entry : movement_.Locations()) {
      if (options_.batch_ticks) {
        CLOAKDB_RETURN_IF_ERROR(
            db_->EnqueueUpdate(entry.id, entry.location, Noon()));
      } else {
        auto update = db_->UpdateLocation(entry.id, entry.location, Noon());
        if (!update.ok()) return update.status();
      }
    }
    return options_.batch_ticks ? db_->Flush() : Status::OK();
  }

  Point TrueLocation(UserId user) const {
    return movement_.LocationOf(user).value();
  }

  /// The region the server side holds under `user`'s current pseudonym.
  Result<Rect> ServerRegion(UserId user) const {
    return db_->shard(db_->ShardOfUser(user)).CurrentRegionOfUser(user);
  }

  /// The private queries return whether the answer refined at the true
  /// location equals the brute-force one.
  Result<bool> PrivateNn(UserId user, Category category) {
    auto cloak = db_->CloakForQuery(user, Noon());
    if (!cloak.ok()) return cloak.status();
    auto result = db_->PrivateNn(cloak.value().cloaked.region, category);
    if (!result.ok()) return result.status();
    const Point at = TrueLocation(user);
    auto nearest = RefineNnCandidates(result.value().candidates, at);
    if (!nearest.ok()) return nearest.status();
    return SquaredFrom({nearest.value()}, at) ==
           NearestSquared(category, at, 1);
  }

  Result<bool> PrivateKnn(UserId user, size_t k, Category category) {
    auto cloak = db_->CloakForQuery(user, Noon());
    if (!cloak.ok()) return cloak.status();
    auto result =
        db_->PrivateKnn(cloak.value().cloaked.region, k, category);
    if (!result.ok()) return result.status();
    const Point at = TrueLocation(user);
    return SquaredFrom(RefineKnnCandidates(result.value().candidates, at, k),
                       at) == NearestSquared(category, at, k);
  }

  Result<bool> PrivateRange(UserId user, double radius, Category category) {
    auto cloak = db_->CloakForQuery(user, Noon());
    if (!cloak.ok()) return cloak.status();
    auto result =
        db_->PrivateRange(cloak.value().cloaked.region, radius, category);
    if (!result.ok()) return result.status();
    const Point at = TrueLocation(user);
    std::vector<ObjectId> got, truth;
    for (const auto& o :
         RefineRangeCandidates(result.value().candidates, at, radius))
      got.push_back(o.id);
    for (const auto& o : pois_) {
      if (o.category == category && Distance(o.location, at) <= radius)
        truth.push_back(o.id);
    }
    std::sort(got.begin(), got.end());
    std::sort(truth.begin(), truth.end());
    return got == truth;
  }

  /// Runs one generated query. A public count is right when its
  /// [min, max] interval holds the true number of users in the window.
  /// Public NN is a QueryProcessor-level query the service does not
  /// serve; generate workloads with WorkloadMix::public_nn = 0.
  Result<bool> Run(const QuerySpec& spec) {
    switch (spec.type) {
      case QueryType::kPrivateRange:
        return PrivateRange(spec.issuer, spec.radius, spec.category);
      case QueryType::kPrivateNn:
        return PrivateNn(spec.issuer, spec.category);
      case QueryType::kPrivateKnn:
        return PrivateKnn(spec.issuer, spec.knn_k, spec.category);
      case QueryType::kPublicCount: {
        auto count = db_->PublicCount(spec.window);
        if (!count.ok()) return count.status();
        int truth = 0;
        for (UserId user : users_) {
          if (spec.window.Contains(TrueLocation(user))) ++truth;
        }
        return count.value().answer.min_count <= truth &&
               truth <= count.value().answer.max_count;
      }
      case QueryType::kPublicNn:
        break;
    }
    return Status::InvalidArgument("the service does not serve public NN");
  }

  CloakDbService& db() { return *db_; }
  const std::vector<UserId>& users() const { return users_; }
  const WorldOptions& options() const { return options_; }

 private:
  explicit World(const WorldOptions& options)
      : options_(options),
        movement_(options.space, {.seed = options.seed ^ 0x5a5a5a5aULL}) {}

  /// The brute-force oracle: squared distances from `at` to the k nearest
  /// `category` POIs, ascending. Comparing distances, not ids, lets
  /// equidistant ties count as exact whichever object the client picked.
  std::vector<double> NearestSquared(Category category, const Point& at,
                                     size_t k) const {
    std::vector<double> squared;
    for (const auto& o : pois_) {
      if (o.category == category)
        squared.push_back(DistanceSquared(o.location, at));
    }
    k = std::min(k, squared.size());
    std::partial_sort(squared.begin(), squared.begin() + k, squared.end());
    squared.resize(k);
    return squared;
  }

  static std::vector<double> SquaredFrom(
      const std::vector<PublicObject>& objects, const Point& at) {
    std::vector<double> squared;
    for (const auto& o : objects)
      squared.push_back(DistanceSquared(o.location, at));
    return squared;
  }

  WorldOptions options_;
  std::unique_ptr<CloakDbService> db_;
  RandomWaypointModel movement_;
  std::vector<PublicObject> pois_;
  std::vector<UserId> users_;
};

}  // namespace e2e
}  // namespace cloakdb

#endif  // CLOAKDB_TESTS_INTEGRATION_SERVICE_WORLD_H_

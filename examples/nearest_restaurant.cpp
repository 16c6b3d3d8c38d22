// Private queries over public data (paper Fig. 5): a user asks for the
// nearest restaurant and for all restaurants within walking distance, under
// increasingly strict privacy profiles. Shows the privacy/QoS trade-off the
// paper describes: stronger privacy -> larger cloaked regions -> bigger
// candidate lists (more transmission cost), while the refined answer stays
// exact. Exits non-zero if any refined answer differs from the brute-force
// truth.
//
// Run: ./nearest_restaurant

#include <algorithm>
#include <cstdio>

#include "server/private_queries.h"
#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "sim/population.h"

using namespace cloakdb;

int main() {
  const Rect space(0.0, 0.0, 20.0, 20.0);
  const TimeOfDay now = TimeOfDay::FromHms(19, 0).value();
  const double walk = 1.0;  // "within walking distance", in miles
  Rng rng(42);

  // One shard, so k counts users among the whole crowd rather than a
  // hash slice of it.
  CloakDbServiceOptions options;
  options.space = space;
  options.num_shards = 1;
  options.anonymizer.algorithm = CloakingKind::kMultiLevelGrid;
  auto service = CloakDbService::Create(options);
  if (!service.ok()) return 1;
  CloakDbService& db = *service.value();

  PoiOptions poi;
  poi.count = 250;
  poi.category = poi_category::kRestaurant;
  poi.name_prefix = "restaurant";
  poi.model = PopulationModel::kGaussianClusters;
  auto pois = GeneratePois(space, poi, &rng);
  if (!pois.ok()) return 1;
  if (!db.BulkLoadCategory(poi.category, pois.value()).ok()) return 1;

  PopulationOptions crowd;
  crowd.num_users = 3000;
  crowd.first_id = 1000;
  crowd.model = PopulationModel::kGaussianClusters;
  auto others = GeneratePopulation(space, crowd, &rng);
  if (!others.ok()) return 1;
  for (const auto& u : others.value()) {
    if (!db.RegisterUser(u.id, PrivacyProfile::Public()).ok()) return 1;
    if (!db.EnqueueUpdate(u.id, u.location, now).ok()) return 1;
  }
  if (!db.Flush().ok()) return 1;

  // Ground truth from the raw POI list: the nearest restaurant and the ids
  // within walking distance of the true location.
  const Point me{11.37, 8.21};
  const PublicObject* nearest = &pois.value().front();
  std::vector<ObjectId> nearby;
  for (const auto& o : pois.value()) {
    if (DistanceSquared(o.location, me) < DistanceSquared(nearest->location, me))
      nearest = &o;
    if (Distance(o.location, me) <= walk) nearby.push_back(o.id);
  }
  std::sort(nearby.begin(), nearby.end());

  std::printf("True location: %s\n", me.ToString().c_str());
  std::printf("%8s %14s %14s %16s %12s\n", "k", "cloak area", "NN cands",
              "range cands(1mi)", "exact?");

  bool all_exact = true;
  for (uint32_t k : {1u, 10u, 50u, 200u, 1000u}) {
    UserId uid = 5'000'000ULL + k;  // distinct id, clear of the crowd range
    auto profile = PrivacyProfile::Uniform(
        {k, 0.0, std::numeric_limits<double>::infinity()});
    if (!profile.ok() || !db.RegisterUser(uid, profile.value()).ok())
      return 1;
    if (!db.UpdateLocation(uid, me, now).ok()) return 1;

    // The service sees only the cloaked region; the device refines.
    auto cloak = db.CloakForQuery(uid, now);
    if (!cloak.ok()) return 1;
    const Rect& region = cloak.value().cloaked.region;
    auto nn = db.PrivateNn(region, poi_category::kRestaurant);
    auto range = db.PrivateRange(region, walk, poi_category::kRestaurant);
    if (!nn.ok() || !range.ok()) return 1;
    auto refined_nn = RefineNnCandidates(nn.value().candidates, me);
    if (!refined_nn.ok()) return 1;
    std::vector<ObjectId> refined_range;
    for (const auto& o :
         RefineRangeCandidates(range.value().candidates, me, walk))
      refined_range.push_back(o.id);
    std::sort(refined_range.begin(), refined_range.end());

    const bool exact =
        refined_nn.value().id == nearest->id && refined_range == nearby;
    all_exact = all_exact && exact;
    std::printf("%8u %11.4f sq %14zu %16zu %12s\n", k, region.Area(),
                nn.value().candidates.size(), range.value().candidates.size(),
                exact ? "yes" : "NO");
    if (!db.UnregisterUser(uid).ok()) return 1;
  }

  std::printf("\nNote how the candidate list (transmission cost) grows with "
              "k while the refined answer stays exact — the paper's "
              "privacy/quality-of-service trade-off.\n");
  return all_exact ? 0 : 1;
}

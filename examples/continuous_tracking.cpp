// Continuous privacy-aware queries (paper Section 5.3): a commuter drives
// across town with a standing "nearest gas station" subscription. The
// service keeps the candidate set current as each cloaked update is applied:
// the standing-query registry re-filters its cached over-fetch instead of
// walking the index on every movement, and only falls back to a full
// re-evaluation when the cloak leaves the cached coverage — while the
// refined answer stays exact the whole way.
//
// Run: ./continuous_tracking

#include <cstdio>

#include "geom/distance.h"
#include "server/private_queries.h"
#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "sim/population.h"

using namespace cloakdb;

int main() {
  const Rect space(0.0, 0.0, 100.0, 100.0);
  const TimeOfDay now = TimeOfDay::FromHms(8, 0).value();
  Rng rng(314);

  // The sharded service with gas stations; a crowd for anonymity.
  CloakDbServiceOptions options;
  options.space = space;
  options.num_shards = 4;
  options.anonymizer.algorithm = CloakingKind::kGrid;
  auto service = CloakDbService::Create(options);
  if (!service.ok()) return 1;
  CloakDbService& db = *service.value();

  PoiOptions poi;
  poi.count = 800;
  poi.category = poi_category::kGasStation;
  poi.name_prefix = "gas";
  auto pois = GeneratePois(space, poi, &rng);
  if (!pois.ok()) return 1;
  if (!db.BulkLoadCategory(poi.category, pois.value()).ok()) return 1;
  PopulationOptions crowd;
  crowd.num_users = 4000;
  crowd.first_id = 100;
  auto others = GeneratePopulation(space, crowd, &rng).value();
  for (const auto& u : others) {
    (void)db.RegisterUser(u.id, PrivacyProfile::Public());
    if (!db.EnqueueUpdate(u.id, u.location, now).ok()) return 1;
  }
  if (!db.Flush().ok()) return 1;

  // The commuter: 30-anonymous, driving west to east.
  auto profile = PrivacyProfile::Uniform(
      {30, 0.0, std::numeric_limits<double>::infinity()}).value();
  if (!db.RegisterUser(1, profile).ok()) return 1;

  auto counter = [&db](const char* name) {
    return db.metrics().CounterValue(name);
  };
  ContinuousQueryId query_id = 0;
  size_t exact = 0, total = 0;

  std::printf("%8s %22s %12s %10s %14s\n", "mile", "cloaked region",
              "candidates", "answer", "evaluation");
  for (int step = 0; step <= 20; ++step) {
    Point me{5.0 + 4.5 * step, 52.0 + 0.3 * step};
    const uint64_t refilters = counter("cq.incremental_refilters_total");
    const uint64_t reevals = counter("cq.full_reevals_total");
    auto update = db.UpdateLocation(1, me, now);
    if (!update.ok()) return 1;
    const Rect& region = update.value().cloaked.region;

    const char* evaluation = "register";
    if (step == 0) {
      auto id = db.RegisterContinuousNn(1, poi_category::kGasStation);
      if (!id.ok()) return 1;
      query_id = id.value();
    }
    // Flush runs the stale-repair sweep, so the answer read below is
    // current for the region just applied.
    if (!db.Flush().ok()) return 1;
    if (step > 0) {
      if (counter("cq.full_reevals_total") > reevals) {
        evaluation = "full";
      } else if (counter("cq.incremental_refilters_total") > refilters) {
        evaluation = "cached";
      } else {
        evaluation = "same cloak";
      }
    }
    auto standing = db.AnswerContinuous(query_id);
    if (!standing.ok()) return 1;
    const std::vector<PublicObject>& candidates = standing.value().candidates;

    // Client-side refinement against the true location.
    auto answer = RefineNnCandidates(candidates, me);
    if (!answer.ok()) return 1;
    // Ground truth: brute force over every gas station.
    const PublicObject* truth = &pois.value().front();
    for (const PublicObject& o : pois.value()) {
      if (Distance(o.location, me) < Distance(truth->location, me))
        truth = &o;
    }
    ++total;
    if (truth->id == answer.value().id) ++exact;

    std::printf("%8.1f %22s %12zu %10s %14s\n", me.x,
                region.ToString().c_str(), candidates.size(),
                answer.value().name.c_str(), evaluation);
  }

  std::printf("\nStanding query: %llu re-filters from the cached fetch, "
              "%llu full re-evaluations. Exact answers: %zu/%zu.\n",
              static_cast<unsigned long long>(
                  counter("cq.incremental_refilters_total")),
              static_cast<unsigned long long>(
                  counter("cq.full_reevals_total")),
              exact, total);
  return exact == total ? 0 : 1;
}

// Experiment S53b — server-side incremental evaluation (paper Section 5.3:
// "processing the continuous queries at the location-based server should
// be done incrementally") plus the Section 2.1 trajectory-linkage threat.
//
// Series: standing range/NN re-evaluation latency and cache-hit rate vs.
// movement step size and standing count maintenance, each against one-shot
// re-execution, all through CloakDbService's standing-query API; the
// standing registry's scaling with the number of live queries; and the
// exposure rate of the linkage adversary vs. privacy level k.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.h"
#include "core/linkage.h"
#include "service/cloak_db_service.h"
#include "sim/movement.h"

namespace cloakdb {
namespace {

using bench::kInf;

// A one-shard service with `num_pois` category-1 POIs and one issuer (user
// 1) whose naive cloak is a centered square of area `side`^2, so a random
// walk of the user walks the cloaked region exactly like a moving window.
// Incremental cloak reuse is off: otherwise the region would stay put
// until the user walked out of it, and most steps would not move it.
std::unique_ptr<CloakDbService> MakeWalkService(size_t num_pois,
                                                double side,
                                                const Point& start) {
  CloakDbServiceOptions options;
  options.space = bench::Space();
  options.num_shards = 1;
  options.anonymizer.algorithm = CloakingKind::kNaive;
  options.anonymizer.enable_incremental = false;
  auto db = CloakDbService::Create(options).value();
  Rng rng(bench::kSeed ^ 0x9999);
  PoiOptions poi;
  poi.count = num_pois;
  poi.category = 1;
  (void)db->BulkLoadCategory(
      1, GeneratePois(bench::Space(), poi, &rng).value());
  (void)db->RegisterUser(
      1, PrivacyProfile::Uniform({1, side * side, kInf}).value());
  (void)db->UpdateLocation(1, start, bench::Noon());
  return db;
}

/// Moves the issuer one random step (clamped so its cloak stays inside the
/// space) and returns the new cloaked region.
Rect StepIssuer(CloakDbService* db, Point* at, double step, double half,
                Rng* rng) {
  at->x = std::clamp(at->x + rng->Uniform(-step, step), half, 100.0 - half);
  at->y = std::clamp(at->y + rng->Uniform(-step, step), half, 100.0 - half);
  return db->UpdateLocation(1, *at, bench::Noon()).value().cloaked.region;
}

/// Incremental arm bookkeeping: the share of region changes the standing
/// registry served from its cached fetch (re-filter) rather than by a full
/// re-evaluation, read from the registry's own cq.* counters.
void ReportCacheHitRate(const CloakDbService& db, uint64_t refilters_before,
                        uint64_t reevals_before, benchmark::State* state) {
  const uint64_t refilters =
      db.metrics().CounterValue("cq.incremental_refilters_total") -
      refilters_before;
  const uint64_t reevals =
      db.metrics().CounterValue("cq.full_reevals_total") - reevals_before;
  if (refilters + reevals == 0) return;
  state->counters["cache_hit_rate"] =
      static_cast<double>(refilters) /
      static_cast<double>(refilters + reevals);
}

// Standing private range query under a random walk: the registry's
// incremental re-filter (plus the stale sweep when the walk leaves the
// cached coverage) vs. a one-shot PrivateRange per move. Both arms pay the
// same cloaked update.
void BM_S53b_ContinuousRange(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  const double step = static_cast<double>(state.range(1)) / 10.0;
  Point at{43, 43};
  auto db = MakeWalkService(5000, 6.0, at);
  ContinuousQueryId id = 0;
  if (incremental) id = db->RegisterContinuousRange(1, 3.0, 1).value();
  const uint64_t refilters_before =
      db->metrics().CounterValue("cq.incremental_refilters_total");
  const uint64_t reevals_before =
      db->metrics().CounterValue("cq.full_reevals_total");
  Rng rng(1);
  size_t results = 0;
  for (auto _ : state) {
    const Rect region = StepIssuer(db.get(), &at, step, 3.0, &rng);
    if (incremental) {
      (void)db->SweepContinuousStale();
      results += db->AnswerContinuous(id).value().candidates.size();
    } else {
      results += db->PrivateRange(region, 3.0, 1).value().candidates.size();
    }
  }
  benchmark::DoNotOptimize(results);
  state.counters["incremental"] = incremental ? 1.0 : 0.0;
  state.counters["step"] = step;
  if (incremental)
    ReportCacheHitRate(*db, refilters_before, reevals_before, &state);
}
BENCHMARK(BM_S53b_ContinuousRange)
    ->Args({0, 10})->Args({1, 10})   // 1.0-unit steps
    ->Args({0, 50})->Args({1, 50})   // 5.0-unit steps
    ->Unit(benchmark::kMicrosecond);

// Standing private NN query under a random walk (1.0-unit steps).
void BM_S53b_ContinuousNn(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  Point at{42.5, 42.5};
  auto db = MakeWalkService(5000, 5.0, at);
  ContinuousQueryId id = 0;
  if (incremental) id = db->RegisterContinuousNn(1, 1).value();
  const uint64_t refilters_before =
      db->metrics().CounterValue("cq.incremental_refilters_total");
  const uint64_t reevals_before =
      db->metrics().CounterValue("cq.full_reevals_total");
  Rng rng(2);
  size_t results = 0;
  for (auto _ : state) {
    const Rect region = StepIssuer(db.get(), &at, 1.0, 2.5, &rng);
    if (incremental) {
      (void)db->SweepContinuousStale();
      results += db->AnswerContinuous(id).value().candidates.size();
    } else {
      results += db->PrivateNn(region, 1).value().candidates.size();
    }
  }
  benchmark::DoNotOptimize(results);
  state.counters["incremental"] = incremental ? 1.0 : 0.0;
  if (incremental)
    ReportCacheHitRate(*db, refilters_before, reevals_before, &state);
}
BENCHMARK(BM_S53b_ContinuousNn)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// Standing count maintenance: the registry's O(1) contribution delta on
// every applied update vs. a one-shot window re-scan per update. 20k users
// with naive cloaks of side 1-6; each iteration moves one user. The
// maintained answer is read once at the end and checked against a one-shot
// count over the same state (`maintained_exact`).
void BM_S53b_ContinuousCount(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  constexpr UserId kUsers = 20000;
  CloakDbServiceOptions options;
  options.space = bench::Space();
  options.num_shards = 1;
  options.anonymizer.algorithm = CloakingKind::kNaive;
  auto db = CloakDbService::Create(options).value();
  Rng rng(3);
  for (UserId user = 1; user <= kUsers; ++user) {
    const double side = rng.Uniform(1, 6);
    (void)db->RegisterUser(
        user, PrivacyProfile::Uniform({1, side * side, kInf}).value());
    (void)db->UpdateLocation(user, {rng.Uniform(5, 95), rng.Uniform(5, 95)},
                             bench::Noon());
  }
  const Rect window(30, 30, 70, 70);
  ContinuousQueryId id = 0;
  if (incremental) id = db->RegisterContinuousCount(window).value();
  double checksum = 0.0;
  for (auto _ : state) {
    const UserId user = 1 + rng.NextBelow(kUsers);
    (void)db->UpdateLocation(user, {rng.Uniform(5, 95), rng.Uniform(5, 95)},
                             bench::Noon());
    if (incremental) {
      checksum += 1.0;  // Maintained by the drain; read once below.
    } else {
      checksum += db->PublicCount(window).value().answer.expected;
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.counters["incremental"] = incremental ? 1.0 : 0.0;
  const double one_shot = db->PublicCount(window).value().answer.expected;
  state.counters["final_expected"] = one_shot;
  if (incremental) {
    auto maintained = db->AnswerContinuous(id);
    state.counters["maintained_exact"] =
        maintained.ok() && maintained.value().count.expected == one_shot
            ? 1.0
            : 0.0;
    state.counters["count_delta_updates"] = static_cast<double>(
        db->metrics().CounterValue("cq.count_delta_updates_total"));
  }
}
BENCHMARK(BM_S53b_ContinuousCount)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// Service-scale standing registry: one full movement tick (every user
// re-reports through the sharded update path) with N standing queries
// live. Per-tick cost must grow with the *affected* query count, not with
// N — the delta-notification grids gate which standing queries re-filter,
// so the affected_p95 counter stays flat while N grows 50x.
void BM_S53b_ServiceStandingScale(benchmark::State& state) {
  const size_t standing = static_cast<size_t>(state.range(0));
  const size_t num_users = 500;
  CloakDbServiceOptions options;
  options.space = bench::Space();
  options.num_shards = 4;
  auto service = CloakDbService::Create(options).value();
  CloakDbService& db = *service;
  auto profile = PrivacyProfile::Uniform({2, 0.0, kInf}).value();
  Rng rng(bench::kSeed ^ 0x53b);
  RandomWaypointModel::Options move_options;
  move_options.seed = bench::kSeed ^ 0x53b;
  RandomWaypointModel movement(bench::Space(), move_options);
  std::vector<UserId> users;
  for (const auto& entry : bench::MakeUsers(num_users)) {
    (void)db.RegisterUser(entry.id, profile);
    (void)movement.AddUser(entry.id, entry.location);
    (void)db.UpdateLocation(entry.id, entry.location, bench::Noon());
    users.push_back(entry.id);
  }
  PoiOptions poi;
  poi.count = 2000;
  poi.category = 1;
  (void)db.BulkLoadCategory(
      1, GeneratePois(bench::Space(), poi, &rng).value());
  for (size_t i = 0; i < standing; ++i) {
    if (i % 16 == 15) {
      Point c{rng.Uniform(10, 90), rng.Uniform(10, 90)};
      (void)db.RegisterContinuousCount(
          Rect::CenteredSquare(c, rng.Uniform(5, 25)));
      continue;
    }
    UserId user = users[i % users.size()];
    switch (i % 3) {
      case 0: (void)db.RegisterContinuousRange(user, 5.0, 1); break;
      case 1: (void)db.RegisterContinuousNn(user, 1); break;
      default: (void)db.RegisterContinuousKnn(user, 3, 1); break;
    }
  }
  for (auto _ : state) {
    movement.Step(1.0);
    for (UserId user : users) {
      (void)db.UpdateLocation(user, movement.LocationOf(user).value(),
                              bench::Noon());
    }
  }
  (void)db.Flush();
  const auto affected =
      db.metrics().SnapshotHistogram("cq.affected_per_update");
  state.counters["standing"] = static_cast<double>(standing);
  state.counters["affected_p95"] = affected.p95();
  state.counters["refilters"] = static_cast<double>(
      db.metrics().CounterValue("cq.incremental_refilters_total"));
}
BENCHMARK(BM_S53b_ServiceStandingScale)
    ->Arg(1000)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

// Linkage exposure vs. privacy level (Section 2.1 "avoid location
// tracking"): moving users, consecutive anonymized batches, reachability
// adversary.
void BM_S21_LinkageExposure(benchmark::State& state) {
  const auto k = static_cast<uint32_t>(state.range(0));
  const size_t n = 2000;
  Rect space = bench::Space();
  AnonymizerOptions anon_options;
  anon_options.space = space;
  anon_options.algorithm = CloakingKind::kMultiLevelGrid;
  anon_options.enable_incremental = false;
  auto anonymizer = Anonymizer::Create(anon_options).value();
  RandomWaypointModel::Options move_options;
  move_options.min_speed = 0.5;
  move_options.max_speed = 2.0;
  RandomWaypointModel movement(space, move_options);
  auto profile = PrivacyProfile::Uniform({k, 0.0, kInf}).value();
  Rng rng(4);
  for (ObjectId id = 1; id <= n; ++id) {
    Point p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    (void)anonymizer->RegisterUser(id, profile);
    (void)movement.AddUser(id, p);
    (void)anonymizer->UpdateLocation(id, p, bench::Noon());
  }
  double exposure = 0.0, candidates = 0.0;
  size_t rounds = 0;
  for (auto _ : state) {
    std::vector<Rect> before;
    before.reserve(n);
    for (ObjectId id = 1; id <= n; ++id) {
      before.push_back(
          anonymizer->CloakForQuery(id, bench::Noon()).value().cloaked.region);
    }
    movement.Step(1.0);
    std::vector<Rect> after;
    after.reserve(n);
    for (ObjectId id = 1; id <= n; ++id) {
      after.push_back(anonymizer
                          ->UpdateLocation(
                              id, movement.LocationOf(id).value(),
                              bench::Noon())
                          .value()
                          .cloaked.region);
    }
    auto report = EvaluateLinkage(before, after, {2.0, 1.0}).value();
    exposure += report.ExposureRate();
    candidates += report.avg_candidates;
    ++rounds;
  }
  state.counters["k"] = k;
  state.counters["exposure_rate"] = exposure / static_cast<double>(rounds);
  state.counters["avg_link_candidates"] =
      candidates / static_cast<double>(rounds);
}
BENCHMARK(BM_S21_LinkageExposure)
    ->Arg(1)->Arg(5)->Arg(25)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cloakdb

BENCHMARK_MAIN();

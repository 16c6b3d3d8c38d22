// Experiment F5 — paper Fig. 5 (private queries over public data).
//
// Fig. 5a (private range) and Fig. 5b (private NN) series: query latency,
// candidate-list size, and bytes shipped to the client as functions of the
// privacy level k (region size) and POI density — against the paper's
// "send all target objects" naive baseline. Also an ablation of the
// dominance-pruning step.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "geom/distance.h"
#include "server/private_queries.h"
#include "service/cloak_db_service.h"

namespace cloakdb {
namespace {

using bench::kInf;

// Builds cloaked query regions from a real anonymizer at privacy level k.
std::vector<Rect> MakeQueryRegions(uint32_t k, size_t count) {
  auto anonymizer = bench::MakeAnonymizer(CloakingKind::kGrid, 20000, k);
  std::vector<Rect> regions;
  Rng rng(31);
  for (size_t i = 0; i < count; ++i) {
    UserId user = 1 + rng.NextBelow(20000);
    auto cloak = anonymizer->CloakForQuery(user, bench::Noon());
    regions.push_back(cloak.value().cloaked.region);
  }
  return regions;
}

void BM_Fig5a_PrivateRange(benchmark::State& state) {
  const auto k = static_cast<uint32_t>(state.range(0));
  auto server = bench::MakeServer(2000);
  auto regions = MakeQueryRegions(k, 256);
  const double radius = 3.0;

  double total_candidates = 0.0;
  size_t queries = 0, idx = 0;
  for (auto _ : state) {
    auto result =
        server->PrivateRange(regions[idx % regions.size()], radius, 1);
    benchmark::DoNotOptimize(result);
    total_candidates +=
        static_cast<double>(result.value().candidates.size());
    ++queries;
    ++idx;
  }
  state.counters["k"] = k;
  state.counters["avg_candidates"] =
      total_candidates / static_cast<double>(queries);
  state.counters["avg_bytes"] = total_candidates /
                                static_cast<double>(queries) *
                                kWireBytesPerObject;
  state.counters["naive_send_all_bytes"] =
      2000.0 * kWireBytesPerObject;  // the paper's baseline
}
BENCHMARK(BM_Fig5a_PrivateRange)
    ->Arg(1)->Arg(10)->Arg(50)->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_Fig5b_PrivateNn(benchmark::State& state) {
  const auto k = static_cast<uint32_t>(state.range(0));
  auto server = bench::MakeServer(2000);
  auto regions = MakeQueryRegions(k, 256);

  double total_candidates = 0.0, total_pruned = 0.0;
  size_t queries = 0, idx = 0;
  for (auto _ : state) {
    auto result = server->PrivateNn(regions[idx % regions.size()], 1);
    benchmark::DoNotOptimize(result);
    total_candidates +=
        static_cast<double>(result.value().candidates.size());
    total_pruned += static_cast<double>(result.value().dominance_pruned);
    ++queries;
    ++idx;
  }
  state.counters["k"] = k;
  state.counters["avg_candidates"] =
      total_candidates / static_cast<double>(queries);
  state.counters["avg_pruned"] = total_pruned / static_cast<double>(queries);
  state.counters["avg_bytes"] = total_candidates /
                                static_cast<double>(queries) *
                                kWireBytesPerObject;
  state.counters["naive_send_all_bytes"] = 2000.0 * kWireBytesPerObject;
}
BENCHMARK(BM_Fig5b_PrivateNn)
    ->Arg(1)->Arg(10)->Arg(50)->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

// POI-density sweep at fixed privacy: candidate size scales with density
// for range queries but stays near-constant for NN (the candidate region
// shrinks as objects get denser).
void BM_Fig5_PoiDensitySweep(benchmark::State& state) {
  const auto pois = static_cast<size_t>(state.range(0));
  auto server = bench::MakeServer(pois);
  auto regions = MakeQueryRegions(50, 128);

  double range_candidates = 0.0, nn_candidates = 0.0;
  size_t queries = 0, idx = 0;
  for (auto _ : state) {
    const Rect& region = regions[idx % regions.size()];
    auto range = server->PrivateRange(region, 3.0, 1);
    auto nn = server->PrivateNn(region, 1);
    benchmark::DoNotOptimize(range);
    benchmark::DoNotOptimize(nn);
    range_candidates +=
        static_cast<double>(range.value().candidates.size());
    nn_candidates += static_cast<double>(nn.value().candidates.size());
    ++queries;
    ++idx;
  }
  state.counters["pois"] = static_cast<double>(pois);
  state.counters["range_candidates"] =
      range_candidates / static_cast<double>(queries);
  state.counters["nn_candidates"] =
      nn_candidates / static_cast<double>(queries);
}
BENCHMARK(BM_Fig5_PoiDensitySweep)
    ->Arg(100)->Arg(500)->Arg(2000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// Ablation: dominance pruning off (fetch-radius filter only) vs. on.
void BM_Fig5_DominancePruningAblation(benchmark::State& state) {
  const bool prune = state.range(0) != 0;
  auto server = bench::MakeServer(2000);
  auto regions = MakeQueryRegions(50, 128);
  const auto* index = server->store().CategoryIndex(1).value();

  double total_candidates = 0.0;
  size_t queries = 0, idx = 0;
  for (auto _ : state) {
    const Rect& cloaked = regions[idx % regions.size()];
    ++idx;
    if (prune) {
      auto result = PrivateNnQuery(server->store(), cloaked, 1);
      total_candidates +=
          static_cast<double>(result.value().candidates.size());
    } else {
      // Fetch-radius-only variant (no dominance pruning).
      double max_corner_nn = 0.0;
      for (const Point& corner : cloaked.Corners()) {
        max_corner_nn =
            std::max(max_corner_nn, index->NearestDistance(corner));
      }
      double half_diag =
          0.5 * std::sqrt(cloaked.Width() * cloaked.Width() +
                          cloaked.Height() * cloaked.Height());
      double radius = max_corner_nn + half_diag;
      auto hits = index->RangeSearch(cloaked.Expanded(radius));
      size_t kept = 0;
      for (const auto& h : hits) {
        if (MinDist(h.location, cloaked) <= radius) ++kept;
      }
      benchmark::DoNotOptimize(kept);
      total_candidates += static_cast<double>(kept);
    }
    ++queries;
  }
  state.counters["pruning"] = prune ? 1.0 : 0.0;
  state.counters["avg_candidates"] =
      total_candidates / static_cast<double>(queries);
}
BENCHMARK(BM_Fig5_DominancePruningAblation)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cloakdb

BENCHMARK_MAIN();

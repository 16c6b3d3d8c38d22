// Experiment F1 — paper Fig. 1 (the three-entity architecture end to end).
//
// Streams movement ticks and a mixed query workload through the sharded
// CloakDbService with the integration suites' harness
// (tests/integration/service_world.h): users report exact locations to the
// anonymizer shards, the server side stores and searches only cloaked
// regions, and every private answer is refined on the client and checked
// against a brute-force scan of the POIs. Accuracy must stay 1.0, the
// architecture's promise. Traffic comes from the service's own counters:
// ingest.updates_applied, the anonymizer cloak counters of Stats(), and
// query.private_nn.wire_bytes.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "integration/service_world.h"

namespace cloakdb {
namespace {

using e2e::World;

// `batch_ticks` streams reports through the queues and batched drains;
// off, each report is a synchronous width-one update, so every counter
// below is the same from run to run.
std::unique_ptr<World> MakeWorld(size_t users, uint32_t k, bool batch_ticks) {
  e2e::WorldOptions options;
  options.space = bench::Space();
  options.num_shards = 4;
  options.num_users = users;
  options.requirement = {k, 0.0, bench::kInf};
  options.pois_per_category = 500;
  options.batch_ticks = batch_ticks;
  return World::Create(options).value();
}

/// Exact answers over answered queries of one kind.
struct Accuracy {
  uint64_t queries = 0, exact = 0;
  void Add(const Result<bool>& answer) {
    ++queries;
    if (answer.ok() && answer.value()) ++exact;
  }
  double Value() const {
    return queries == 0 ? 1.0 : static_cast<double>(exact) / queries;
  }
};

double CounterValue(World& world, const std::string& name) {
  return static_cast<double>(world.db().metrics().CounterValue(name));
}

// Update-pipeline throughput: one full tick = movement + queued reports +
// cloaking + server ingest for every user. Wall time: the drain workers,
// not the calling thread, do the cloaking.
void BM_Fig1_UpdatePipeline(benchmark::State& state) {
  const auto users = static_cast<size_t>(state.range(0));
  auto world = MakeWorld(users, 10, /*batch_ticks=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(world->Tick(0.5));
  }
  state.counters["users"] = static_cast<double>(users);
  state.counters["updates_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * users),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fig1_UpdatePipeline)
    ->Arg(500)->Arg(2000)->Arg(8000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Mixed query workload over a live service: reports exactness and traffic.
// Public NN is a QueryProcessor-level query (bench_fig6), not in the mix.
void BM_Fig1_MixedWorkload(benchmark::State& state) {
  const auto k = static_cast<uint32_t>(state.range(0));
  auto world = MakeWorld(2000, k, /*batch_ticks=*/false);
  WorkloadOptions workload;
  workload.categories = world->options().categories;
  workload.mix.public_nn = 0.0;
  auto gen =
      WorkloadGenerator::Create(bench::Space(), world->users(), workload)
          .value();
  Rng rng(9);
  Accuracy nn, range;
  for (auto _ : state) {
    auto spec = gen.Next(&rng);
    auto answer = world->Run(spec);
    if (spec.type == QueryType::kPrivateNn) nn.Add(answer);
    if (spec.type == QueryType::kPrivateRange) range.Add(answer);
  }
  state.counters["k"] = k;
  state.counters["nn_accuracy"] = nn.Value();
  state.counters["range_accuracy"] = range.Value();
  state.counters["avg_nn_candidates"] =
      world->db().metrics().histogram("query.private_nn.candidates")
          ->Snapshot().mean();
  state.counters["wire_bytes"] =
      CounterValue(*world, "query.private_nn.wire_bytes") +
      CounterValue(*world, "query.private_range.wire_bytes");
}
BENCHMARK(BM_Fig1_MixedWorkload)
    ->Arg(1)->Arg(10)->Arg(100)
    ->Unit(benchmark::kMicrosecond);

// Traffic of one session (1 000 users, 3 ticks, 100 NN queries) as the
// service counts it: reports applied, cloaks computed or reused, and
// candidate bytes returned to clients.
void BM_Fig1_ChannelTraffic(benchmark::State& state) {
  for (auto _ : state) {
    auto world = MakeWorld(1000, 20, /*batch_ticks=*/false);
    for (int tick = 0; tick < 3; ++tick) (void)world->Tick(1.0);
    Accuracy nn;
    for (size_t i = 0; i < 100; ++i)
      nn.Add(world->PrivateNn(world->users()[i * 7],
                              poi_category::kGasStation));
    const ServiceStats stats = world->db().Stats();
    state.counters["updates_applied"] =
        static_cast<double>(stats.ingest.updates_applied);
    state.counters["cloaks_computed"] =
        static_cast<double>(stats.anonymizer.cloaks_computed);
    state.counters["cloak_reuses"] =
        static_cast<double>(stats.anonymizer.incremental_reuses +
                            stats.anonymizer.shared_reuses);
    state.counters["nn_wire_bytes"] =
        CounterValue(*world, "query.private_nn.wire_bytes");
    state.counters["nn_accuracy"] = nn.Value();
  }
}
BENCHMARK(BM_Fig1_ChannelTraffic)->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(3);

}  // namespace
}  // namespace cloakdb

BENCHMARK_MAIN();

// The cloakbench workloads: wire_private, ingest_mixed and hotspot_shared.
//
// Each run sets the world up several times (setup_s is their median), then
// measures one timed window on the last set-up: an open-loop phase at a
// fixed offered rate (latency, timed from the scheduled send) followed by
// a closed-loop phase with one outstanding request per caller (capacity).
// ingest_mixed streams location ticks beside the open loop and pauses the
// stream for the closed loop. After the window the checker verifies every
// answer, and a crash image of the data directory is reopened to time and
// verify recovery.
#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "geom/distance.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace_export.h"
#include "server/private_queries.h"
#include "service/cloak_db_service.h"
#include "sim/movement.h"
#include "sim/poi.h"
#include "sim/population.h"
#include "trace_fold.h"
#include "util/random.h"

#ifndef CLOAKBENCH_BUILD_TYPE
#define CLOAKBENCH_BUILD_TYPE "unknown"
#endif

namespace cloakbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using cloakdb::CloakDbService;
using cloakdb::CloakDbServiceOptions;
using cloakdb::QueryRequest;
using cloakdb::QueryResponse;
using cloakdb::TimeOfDay;
using cloakdb::UserId;

namespace {

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

unsigned Nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// --- Workload specifications ------------------------------------------------

struct Spec {
  cloakdb::PopulationModel model = cloakdb::PopulationModel::kGaussianClusters;
  size_t users = 4000;
  /// ingest_mixed: users that never move; they issue the private queries,
  /// so their true location is known exactly while others move.
  size_t stationary = 0;
  size_t pois_per_category = 10000;
  /// Gaussian city clusters; enough of them that the mean cloak (and so
  /// the candidate-list length) varies little from seed to seed.
  size_t clusters = 16;
  bool wire = false;
  bool shared_exec = false;
  bool ingest = false;
  size_t cache_capacity = 0;
  uint32_t batch_window_us = 0;
  /// Open-loop offered rate (queries/s), well below the closed-loop
  /// capacity measured when the benchmark was defined.
  double offered_qps = 1000.0;
  /// Open-loop validity: a phase whose loadgen.lag_us.p99 exceeds this ran
  /// on a disturbed machine (the senders themselves fell behind) and is
  /// repeated; about twice the lag of an undisturbed run.
  double lag_bound_us = 300.0;
  double range_radius = 10.0;
  uint32_t knn_k = 4;
  /// Query issuers drawn with Zipf skew over a shuffled user order.
  double issuer_zipf_theta = 0.0;
  size_t standing = 0;
  /// ingest_mixed: a tick (move everyone, enqueue, Flush) starts every
  /// tick_period_ms, or at once when the previous tick ran late.
  double tick_period_ms = 100.0;
  size_t trickle_per_tick = 0;
  size_t trickle_initial = 0;
  uint64_t checkpoint_interval = 4096;
};

Spec SpecFor(const std::string& name, bool tiny) {
  Spec s;
  if (name == "wire_private") {
    s.wire = true;
    s.offered_qps = 1000.0;
  } else if (name == "hotspot_shared") {
    s.model = cloakdb::PopulationModel::kZipfGrid;
    s.shared_exec = true;
    s.cache_capacity = 1024;
    s.batch_window_us = 200;
    s.issuer_zipf_theta = 0.9;
    s.offered_qps = 500.0;
    s.lag_bound_us = 500.0;
  } else if (name == "ingest_mixed") {
    s.ingest = true;
    // Random waypoint starts from a uniform spread.
    s.model = cloakdb::PopulationModel::kUniform;
    s.users = 3200;
    s.stationary = 400;
    s.offered_qps = 500.0;
    // Queries stall behind drains here, so senders lag by design.
    s.lag_bound_us = 15000.0;
    s.standing = 240;
    s.trickle_per_tick = 6;
    s.trickle_initial = 2000;
    // WAL records are drained batches: several checkpoints per run.
    s.checkpoint_interval = 64;
  }
  if (tiny) {
    s.users = s.ingest ? 700 : 600;
    s.stationary = s.ingest ? 100 : 0;
    s.pois_per_category = 1500;
    s.offered_qps = std::min(s.offered_qps, 400.0);
    s.standing = std::min<size_t>(s.standing, 40);
    s.trickle_initial = std::min<size_t>(s.trickle_initial, 200);
  }
  return s;
}

constexpr Category kTrickleCategory = cloakdb::poi_category::kCoffeeShop;

// --- Environment: one set-up world + service -------------------------------

struct StandingRef {
  cloakdb::ContinuousQueryId id = 0;
  QueryKind kind = QueryKind::kPrivateRange;
  size_t user_index = 0;
  uint32_t cat_index = 0;
  double radius = 0.0;
  size_t k = 1;
  Rect window;
};

struct Env {
  Spec spec;
  World world;
  CloakDbServiceOptions options;
  std::unique_ptr<CloakDbService> db;
  std::unique_ptr<cloakdb::net::CloakServer> server;
  std::vector<std::unique_ptr<cloakdb::net::CloakClient>> clients;
  std::unique_ptr<cloakdb::RandomWaypointModel> movement;
  std::vector<size_t> movers;   ///< World::users indexes that move.
  std::vector<size_t> issuers;  ///< World::users indexes issuing queries.
  std::unique_ptr<cloakdb::ZipfSampler> issuer_zipf;
  PositionHistory history;      ///< ingest_mixed only.
  /// Where each user really is, as Issue() takes the issuer's location:
  /// the initial positions, or the last tick's at the closing barrier.
  std::vector<Point> positions;
  std::vector<StandingRef> standing;
  std::vector<PublicObject> trickle_pending;  ///< Generated, not yet added.
  size_t trickle_next = 0;
  double setup_s = 0.0;
  double initial_disk_bytes_per_update = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Tick state shared with the query threads (ingest_mixed).
  std::atomic<uint32_t> ticks_started{0};
  std::atomic<uint32_t> ticks_flushed{0};
  /// Set while the open-loop phase runs; traced queries carry it so the
  /// stage ledger covers the same queries as query_p50_us.
  std::atomic<bool> open_phase{false};
};

const TimeOfDay kNoon = TimeOfDay::FromSeconds(12 * 3600);

/// Rounds of one ingest probe of the static worlds.
constexpr int kIngestProbeRounds = 15;

/// Timed trials after the window: each reopens the crash image and, on the
/// static worlds, runs an ingest probe. Interference on the shared machine
/// comes in spells of seconds (see kFastSide), so the trials are spread
/// over kTrialSpanSeconds rather than run back to back.
constexpr int kTrials = 24;
constexpr double kTrialSpanSeconds = 8.0;

/// Open-loop phases tried before a disturbed one is reported (invalid).
constexpr int kOpenAttempts = 2;

uint64_t DiskBytes(const cloakdb::obs::MetricsRegistry& m) {
  return m.CounterValue("wal.bytes_total") +
         m.CounterValue("checkpoint.bytes_total");
}

/// Builds the world and brings the service to its measured state: service
/// start, POI bulk load, user registration, initial ingest + Flush, standing
/// queries, the wire front end and a warm-up. Everything here is setup_s.
std::unique_ptr<Env> Setup(const Spec& spec, uint64_t seed, bool traced,
                           const std::string& data_dir, std::string* error) {
  const auto begin = Clock::now();
  auto env = std::make_unique<Env>();
  env->spec = spec;
  World& w = env->world;
  w.requirement = {10, 1.0, 100.0};
  cloakdb::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);

  cloakdb::PopulationOptions pop;
  pop.num_users = spec.users;
  pop.model = spec.model;
  pop.num_clusters = spec.clusters;
  auto population = cloakdb::GeneratePopulation(w.space, pop, &rng);
  if (!population.ok()) {
    *error = "population: " + population.status().ToString();
    return nullptr;
  }
  w.users = std::move(population).value();
  for (const auto& u : w.users) env->positions.push_back(u.location);

  CloakDbServiceOptions& o = env->options;
  o.space = w.space;
  o.num_shards = 4;
  o.anonymizer.pseudonym_seed = seed;
  o.enable_shared_execution = spec.shared_exec;
  if (spec.shared_exec) {
    o.cache_capacity = spec.cache_capacity;
    o.batch_window_us = spec.batch_window_us;
  }
  o.durability_mode = cloakdb::storage::DurabilityMode::kAsync;
  o.data_dir = data_dir;
  o.checkpoint_interval = spec.checkpoint_interval;
  if (traced) {
    o.trace.enabled = true;
    o.trace.sample_probability = 1.0;
  }
  auto created = CloakDbService::Create(o);
  if (!created.ok()) {
    *error = "service: " + created.status().ToString();
    return nullptr;
  }
  env->db = std::move(created).value();
  CloakDbService& db = *env->db;

  std::vector<Category> cats = {cloakdb::poi_category::kGasStation,
                                cloakdb::poi_category::kRestaurant};
  if (spec.ingest) cats.push_back(kTrickleCategory);
  for (size_t c = 0; c < cats.size(); ++c) {
    cloakdb::PoiOptions po;
    po.category = cats[c];
    po.name_prefix = "poi" + std::to_string(cats[c]);
    po.first_id = 1'000'000ULL * (c + 1);
    const bool trickle = cats[c] == kTrickleCategory;
    po.count = trickle ? spec.trickle_initial + 20000 : spec.pois_per_category;
    auto pois = cloakdb::GeneratePois(w.space, po, &rng);
    if (!pois.ok()) {
      *error = "pois: " + pois.status().ToString();
      return nullptr;
    }
    std::vector<PublicObject> all = std::move(pois).value();
    std::vector<PublicObject> loaded = all;
    if (trickle) {
      loaded.resize(spec.trickle_initial);
      env->trickle_pending.assign(all.begin() + spec.trickle_initial,
                                  all.end());
    }
    if (auto st = db.BulkLoadCategory(cats[c], loaded); !st.ok()) {
      *error = "bulk load: " + st.ToString();
      return nullptr;
    }
    w.categories.push_back(cats[c]);
    w.pois.push_back(std::move(loaded));
  }

  for (const auto& u : w.users) {
    ++env->attempted;
    auto st = db.RegisterUser(
        u.id, cloakdb::PrivacyProfile::Uniform(w.requirement).value());
    if (!st.ok()) ++env->failed;
  }

  // Initial ingest: every user reports once, then a Flush barrier.
  const uint64_t disk_before = DiskBytes(db.metrics());
  for (const auto& u : w.users) {
    ++env->attempted;
    if (!db.EnqueueUpdate(u.id, u.location, kNoon).ok()) ++env->failed;
  }
  if (auto st = db.Flush(); !st.ok()) {
    *error = "flush: " + st.ToString();
    return nullptr;
  }
  env->initial_disk_bytes_per_update =
      static_cast<double>(DiskBytes(db.metrics()) - disk_before) /
      static_cast<double>(w.users.size());

  // Movers and issuers.
  for (size_t i = 0; i < w.users.size(); ++i) {
    if (spec.ingest && i >= spec.stationary) {
      env->movers.push_back(i);
    } else {
      env->issuers.push_back(i);
    }
  }
  if (spec.issuer_zipf_theta > 0.0) {
    rng.Shuffle(&env->issuers);
    env->issuer_zipf = std::make_unique<cloakdb::ZipfSampler>(
        env->issuers.size(), spec.issuer_zipf_theta);
  }
  if (spec.ingest) {
    cloakdb::RandomWaypointModel::Options mo;
    mo.seed = seed ^ 0x5eedULL;
    env->movement =
        std::make_unique<cloakdb::RandomWaypointModel>(w.space, mo);
    for (size_t i : env->movers) {
      (void)env->movement->AddUser(w.users[i].id, w.users[i].location);
    }
    std::vector<Point> row;
    for (const auto& u : w.users) row.push_back(u.location);
    env->history.push_back(std::move(row));
    // Standing queries: private kinds on movers over every category
    // (including the trickled one), plus count windows.
    for (size_t i = 0; i < spec.standing; ++i) {
      StandingRef ref;
      cloakdb::Result<cloakdb::ContinuousQueryId> id = cloakdb::Status::OK();
      ++env->attempted;
      if (i % 12 == 11) {
        ref.kind = QueryKind::kPublicCount;
        ref.window = Rect::CenteredSquare(
            {rng.Uniform(10, 90), rng.Uniform(10, 90)}, rng.Uniform(5, 20));
        id = db.RegisterContinuousCount(ref.window);
      } else {
        ref.user_index = env->movers[(i * 7919) % env->movers.size()];
        ref.cat_index = static_cast<uint32_t>(i % w.categories.size());
        const UserId user = w.users[ref.user_index].id;
        const Category cat = w.categories[ref.cat_index];
        switch (i % 3) {
          case 0:
            ref.kind = QueryKind::kPrivateRange;
            ref.radius = spec.range_radius / 2;
            id = db.RegisterContinuousRange(user, ref.radius, cat);
            break;
          case 1:
            ref.kind = QueryKind::kPrivateNn;
            id = db.RegisterContinuousNn(user, cat);
            break;
          default:
            ref.kind = QueryKind::kPrivateKnn;
            ref.k = 3;
            id = db.RegisterContinuousKnn(user, ref.k, cat);
            break;
        }
      }
      if (!id.ok()) {
        ++env->failed;
        continue;
      }
      ref.id = id.value();
      env->standing.push_back(ref);
    }
  }
  for (size_t c = 0; c < w.pois.size(); ++c) {
    std::vector<uint32_t> stripes;
    for (const auto& p : w.pois[c]) stripes.push_back(db.ShardOfX(p.location.x));
    w.poi_stripes.push_back(std::move(stripes));
  }

  if (spec.wire) {
    cloakdb::net::CloakServerOptions so;
    so.metrics_window_interval_ms = 0;
    auto server = cloakdb::net::CloakServer::Create(&db, so);
    if (!server.ok()) {
      *error = "server: " + server.status().ToString();
      return nullptr;
    }
    env->server = std::move(server).value();
    for (unsigned i = 0; i < Nproc(); ++i) {
      auto client =
          cloakdb::net::CloakClient::Connect("127.0.0.1", env->server->port());
      if (!client.ok()) {
        *error = "client: " + client.status().ToString();
        return nullptr;
      }
      env->clients.push_back(std::move(client).value());
    }
  }
  env->setup_s = Seconds(Clock::now() - begin);
  return env;
}

// --- Operations ---------------------------------------------------------------

struct Op {
  QueryKind kind = QueryKind::kPrivateNn;
  uint32_t cat_index = 0;
  size_t user_index = 0;
  double radius = 0.0;
  uint32_t k = 1;
  Rect window;
};

/// Draws the workload's query mix: equal parts range / NN / kNN, or for
/// ingest_mixed equal parts public count / private NN.
std::vector<Op> MakeOps(const Env& env, size_t n, uint64_t seed) {
  cloakdb::Rng rng(seed);
  std::vector<Op> ops(n);
  for (size_t i = 0; i < n; ++i) {
    Op& op = ops[i];
    const size_t slot = rng.NextBelow(env.spec.ingest ? 2 : 3);
    op.cat_index = static_cast<uint32_t>(rng.NextBelow(2));
    op.user_index =
        env.issuer_zipf != nullptr
            ? env.issuers[env.issuer_zipf->Sample(&rng)]
            : env.issuers[rng.NextBelow(env.issuers.size())];
    if (env.spec.ingest) {
      if (slot == 0) {
        op.kind = QueryKind::kPublicCount;
        op.window = Rect::CenteredSquare(
            {rng.Uniform(5, 95), rng.Uniform(5, 95)}, rng.Uniform(5, 20));
      } else {
        op.kind = QueryKind::kPrivateNn;
      }
      continue;
    }
    switch (slot) {
      case 0:
        op.kind = QueryKind::kPrivateRange;
        op.radius = env.spec.range_radius;
        break;
      case 1:
        op.kind = QueryKind::kPrivateNn;
        break;
      default:
        op.kind = QueryKind::kPrivateKnn;
        op.k = env.spec.knn_k;
        break;
    }
  }
  return ops;
}

/// One query, as a device would issue it: cloak (private kinds), send over
/// the wire or call the service, refine the candidates at the true
/// location. Latency runs from `scheduled` to the refined answer.
QueryRecord Issue(Env& env, const Op& op, cloakdb::net::CloakClient* client,
                  Clock::time_point scheduled, bool quiescent) {
  namespace obs = cloakdb::obs;
  CloakDbService& db = *env.db;
  obs::Tracer* tracer = db.tracer();
  QueryRecord r;
  r.kind = op.kind;
  r.cat_index = op.cat_index;
  r.radius = op.radius;
  r.k = op.k;
  const auto started = Clock::now();
  r.lag_us = std::max(0.0, Micros(started - scheduled));
  obs::TraceContext trace;
  obs::TraceSpan root;
  if (tracer != nullptr) {
    trace = tracer->BeginTrace("bench.query");
    root = obs::TraceSpan(trace, "bench.query");
  }
  r.tick_lo = env.ticks_flushed.load();

  QueryRequest request;
  if (op.kind == QueryKind::kPublicCount) {
    request = QueryRequest::Count(op.window);
    r.region = op.window;
  } else {
    const auto& user = env.world.users[op.user_index];
    r.issuer = user.id;
    r.true_loc = env.positions[op.user_index];
    r.quiescent = quiescent;
    obs::TraceSpan span(root.context(), "core.cloak_query");
    obs::ScopedTraceContext scope(span.context());
    const auto t0 = Clock::now();
    auto cloak = db.CloakForQuery(user.id, kNoon);
    r.cloak_us = Micros(Clock::now() - t0);
    span.End();
    if (!cloak.ok()) {
      r.error = cloak.status().code();
      r.latency_us = Micros(Clock::now() - scheduled);
      if (tracer != nullptr) tracer->FinishTrace(trace, root.End(), false);
      return r;
    }
    const auto& c = cloak.value().cloaked;
    r.region = c.region;
    r.achieved_k = c.achieved_k;
    r.k_satisfied = c.k_satisfied;
    r.min_area_satisfied = c.min_area_satisfied;
    r.max_area_satisfied = c.max_area_satisfied;
    const Category cat = env.world.categories[op.cat_index];
    switch (op.kind) {
      case QueryKind::kPrivateRange:
        request = QueryRequest::Range(c.region, op.radius, cat);
        break;
      case QueryKind::kPrivateNn:
        request = QueryRequest::Nn(c.region, cat);
        break;
      default:
        request = QueryRequest::Knn(c.region, op.k, cat);
        break;
    }
  }

  QueryResponse response;
  {
    obs::TraceSpan span(root.context(),
                        client != nullptr ? "net.roundtrip" : "service.execute");
    const auto t0 = Clock::now();
    if (client != nullptr) {
      auto got = client->Execute(request);
      if (got.ok()) {
        response = std::move(got).value();
        r.wire_us = std::max(
            0.0, Micros(Clock::now() - t0) -
                     static_cast<double>(response.server_latency_us));
      } else {
        r.lost = true;
        response = cloakdb::MakeErrorResponse(request.kind, got.status());
      }
    } else {
      response = db.ExecuteQuery(request);
    }
    span.AddAttr("service_trace", static_cast<double>(response.trace_id));
  }
  {
    obs::TraceSpan span(root.context(), "server.refine");
    const auto t0 = Clock::now();
    RecordAnswer(response, &r);
    r.refine_us = Micros(Clock::now() - t0);
  }
  r.tick_hi = env.ticks_started.load();
  r.latency_us = Micros(Clock::now() - scheduled);
  if (tracer != nullptr) {
    root.AddAttr("latency_us", r.latency_us);
    root.AddAttr("open", env.open_phase.load() ? 1.0 : 0.0);
    tracer->FinishTrace(trace, root.End(), false);
  }
  return r;
}

// --- Load generation -------------------------------------------------------------

/// Open loop: query i is due at start + i / rate, whatever happened to
/// earlier ones; `threads` senders (each with its own connection on the
/// wire) take every threads-th slot.
std::vector<QueryRecord> OpenLoop(Env& env, const std::vector<Op>& ops,
                                  double rate, double seconds,
                                  unsigned threads, bool quiescent) {
  const size_t n = std::min(ops.size(),
                            static_cast<size_t>(std::ceil(rate * seconds)));
  std::vector<QueryRecord> records(n);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      cloakdb::net::CloakClient* client =
          env.clients.empty() ? nullptr : env.clients[t].get();
      for (size_t i = t; i < n; i += threads) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / rate));
        std::this_thread::sleep_until(due);
        records[i] = Issue(env, ops[i], client, due, quiescent);
        records[i].at_s = i / rate;
      }
    });
  }
  for (auto& th : pool) th.join();
  return records;
}

/// Closed loop: `callers` each keep one request outstanding until the
/// deadline. Returns the records; `*elapsed_s` is the measured span.
std::vector<QueryRecord> ClosedLoop(Env& env, const std::vector<Op>& ops,
                                    double seconds, unsigned callers,
                                    bool quiescent, double* elapsed_s) {
  std::vector<std::vector<QueryRecord>> parts(callers);
  for (auto& p : parts) p.reserve(static_cast<size_t>(seconds * 20000));
  std::atomic<size_t> next{0};
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < callers; ++t) {
    pool.emplace_back([&, t] {
      cloakdb::net::CloakClient* client =
          env.clients.empty() ? nullptr : env.clients[t].get();
      while (Clock::now() < deadline) {
        const Op& op = ops[next.fetch_add(1) % ops.size()];
        parts[t].push_back(Issue(env, op, client, Clock::now(), quiescent));
        parts[t].back().at_s = Seconds(Clock::now() - start);
      }
    });
  }
  for (auto& th : pool) th.join();
  *elapsed_s = Seconds(Clock::now() - start);
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<QueryRecord> records;
  records.reserve(total);
  for (auto& p : parts) {
    records.insert(records.end(), p.begin(), p.end());
    std::vector<QueryRecord>().swap(p);
  }
  return records;
}

/// The ingest stream of ingest_mixed: each tick moves the population,
/// enqueues every mover, opens a few new POIs, then Flushes.
struct IngestStats {
  std::vector<double> tick_ups;  ///< Updates per second of each tick.
  uint64_t updates = 0;
  uint64_t pois_added = 0;
  uint64_t ticks = 0;
  double busy_s = 0.0;
  uint64_t failed = 0;
};

/// One tick: move the population, enqueue every mover, open a few POIs,
/// Flush.
void IngestTick(Env& env, IngestStats* stats) {
  namespace obs = cloakdb::obs;
  CloakDbService& db = *env.db;
  obs::Tracer* tracer = db.tracer();
  const World& w = env.world;
  env.movement->Step(1.0);
  std::vector<Point> row = env.history.back();
  for (size_t i : env.movers)
    row[i] = env.movement->LocationOf(w.users[i].id).value();
  env.history.push_back(row);
  const uint32_t tick = env.ticks_started.fetch_add(1) + 1;
  obs::TraceContext trace;
  obs::TraceSpan root;
  if (tracer != nullptr) {
    trace = tracer->BeginTrace("bench.tick");
    root = obs::TraceSpan(trace, "bench.tick");
  }
  const auto t0 = Clock::now();
  for (size_t i : env.movers) {
    if (!db.EnqueueUpdate(w.users[i].id, row[i], kNoon).ok()) ++stats->failed;
    ++stats->updates;
  }
  for (size_t j = 0; j < env.spec.trickle_per_tick &&
                     env.trickle_next < env.trickle_pending.size();
       ++j) {
    const PublicObject& poi = env.trickle_pending[env.trickle_next++];
    if (!db.AddPublicObject(poi).ok()) ++stats->failed;
    ++stats->pois_added;
  }
  {
    obs::TraceSpan flush(root.context(), "bench.flush");
    if (!db.Flush().ok()) ++stats->failed;
  }
  const double tick_s = Seconds(Clock::now() - t0);
  stats->busy_s += tick_s;
  stats->tick_ups.push_back(static_cast<double>(env.movers.size()) / tick_s);
  ++stats->ticks;
  env.ticks_flushed.store(tick);
  if (tracer != nullptr) tracer->FinishTrace(trace, root.End(), false);
}

/// Ticks every tick_period_ms (at once when the previous tick ran late)
/// until `stop`.
void IngestLoop(Env& env, const std::atomic<bool>& stop, IngestStats* stats) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(env.spec.tick_period_ms));
  auto due = Clock::now();
  while (!stop.load()) {
    std::this_thread::sleep_until(due);
    due = std::max(due + period, Clock::now());
    IngestTick(env, stats);
  }
}

/// Moves the POIs opened so far into the truth (World::pois).
void AdoptOpenedPois(Env& env, size_t* adopted) {
  World& w = env.world;
  const size_t t = static_cast<size_t>(
      std::find(w.categories.begin(), w.categories.end(), kTrickleCategory) -
      w.categories.begin());
  for (; *adopted < env.trickle_next; ++*adopted) {
    const PublicObject& poi = env.trickle_pending[*adopted];
    w.pois[t].push_back(poi);
    w.poi_stripes[t].push_back(env.db->ShardOfX(poi.location.x));
  }
}

/// Ingest probe of the static worlds: the whole population re-reports its
/// (unchanged) position a few times, each round made visible by a Flush.
/// Appends each round's updates per second; false when a Flush failed.
bool IngestProbe(Env& env, std::vector<double>* round_ups) {
  CloakDbService& db = *env.db;
  for (int round = 0; round < kIngestProbeRounds; ++round) {
    const auto begin = Clock::now();
    for (const auto& u : env.world.users) {
      ++env.attempted;
      if (!db.EnqueueUpdate(u.id, u.location, kNoon).ok()) ++env.failed;
    }
    if (!db.Flush().ok()) return false;
    round_ups->push_back(static_cast<double>(env.world.users.size()) /
                         Seconds(Clock::now() - begin));
  }
  return true;
}

// --- Barrier checks ------------------------------------------------------------------

/// Ids of `pois`, sorted.
std::vector<ObjectId> SortedIds(const std::vector<PublicObject>& pois) {
  std::vector<ObjectId> ids;
  for (const auto& p : pois) ids.push_back(p.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Standing answers at a Flush barrier must match fresh one-shot answers:
/// range and count equal, NN/kNN holding the brute-force neighbours of the
/// issuer's true location.
void CheckStanding(Env& env, CheckReport* report) {
  CloakDbService& db = *env.db;
  const World& w = env.world;
  const auto& positions = env.history.back();
  for (const auto& ref : env.standing) {
    ++report->checked;
    auto answer = db.AnswerContinuous(ref.id);
    if (!answer.ok() || answer.value().stale) {
      report->Fail("standing query " + std::to_string(ref.id) +
                   " unanswerable or stale at a barrier");
      continue;
    }
    const auto& a = answer.value();
    if (ref.kind == QueryKind::kPublicCount) {
      auto oneshot = db.PublicCount(ref.window);
      if (!oneshot.ok() ||
          std::abs(a.count.expected - oneshot.value().answer.expected) >
              1e-6 ||
          a.count.min_count != oneshot.value().answer.min_count ||
          a.count.max_count != oneshot.value().answer.max_count) {
        report->Fail("standing count " + std::to_string(ref.id) +
                     " differs from the one-shot count");
      }
      continue;
    }
    std::vector<ObjectId> ids = SortedIds(a.candidates);
    if (ref.kind == QueryKind::kPrivateRange) {
      auto info = db.ContinuousInfo(ref.id);
      auto oneshot =
          info.ok() ? db.PrivateRange(info.value().region, ref.radius,
                                      w.categories[ref.cat_index])
                    : cloakdb::Result<cloakdb::PrivateRangeResult>(
                          info.status());
      if (!oneshot.ok() || SortedIds(oneshot.value().candidates) != ids) {
        report->Fail("standing range " + std::to_string(ref.id) +
                     " differs from the one-shot range");
      }
      continue;
    }
    // NN / kNN: the issuer's true nearest objects must be present.
    const Point at = positions[ref.user_index];
    const size_t k = ref.kind == QueryKind::kPrivateNn ? 1 : ref.k;
    const auto want = TruthKnnDistances(w.pois[ref.cat_index], at, k);
    std::vector<PublicObject> got =
        cloakdb::RefineKnnCandidates(a.candidates, at, k);
    std::vector<double> dists;
    for (const auto& o : got) dists.push_back(cloakdb::Distance(o.location, at));
    if (dists != want) {
      report->Fail("standing " +
                   std::string(cloakdb::QueryKindName(ref.kind)) + " " +
                   std::to_string(ref.id) + " lost a true neighbour");
    }
  }
}

/// The fixed query battery a reopened service must answer bit-identically
/// to the live one: private queries on fixed regions over every category,
/// a tiling of count windows, and one whole-space range per category.
std::vector<QueryRequest> RecoveryBattery(const World& w, uint64_t seed) {
  cloakdb::Rng rng(seed ^ 0xBA77E11ULL);
  std::vector<QueryRequest> battery;
  for (size_t c = 0; c < w.categories.size(); ++c) {
    for (int i = 0; i < 8; ++i) {
      const Rect region = Rect::CenteredSquare(
          {rng.Uniform(5, 95), rng.Uniform(5, 95)}, rng.Uniform(1, 6));
      battery.push_back(QueryRequest::Range(region, 6.0, w.categories[c]));
      battery.push_back(QueryRequest::Nn(region, w.categories[c]));
      battery.push_back(QueryRequest::Knn(region, 4, w.categories[c]));
    }
    battery.push_back(QueryRequest::Range(w.space, 1.0, w.categories[c]));
  }
  constexpr int kTiles = 8;
  const double side = w.space.Width() / kTiles;
  for (int x = 0; x < kTiles; ++x) {
    for (int y = 0; y < kTiles; ++y) {
      battery.push_back(QueryRequest::Count(
          {w.space.min_x + x * side, w.space.min_y + y * side,
           w.space.min_x + (x + 1) * side, w.space.min_y + (y + 1) * side}));
    }
  }
  battery.push_back(QueryRequest::Count(w.space));
  return battery;
}

bool SameResponse(const QueryResponse& a, const QueryResponse& b) {
  if (a.error != b.error || a.candidates.size() != b.candidates.size() ||
      a.expected_count != b.expected_count || a.count_min != b.count_min ||
      a.count_max != b.count_max)
    return false;
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    const auto& x = a.candidates[i];
    const auto& y = b.candidates[i];
    if (x.id != y.id || x.location != y.location || x.category != y.category ||
        x.name != y.name)
      return false;
  }
  return true;
}

/// Verifies a service reopened from a crash image against the live one it
/// was copied from: identical battery answers and pseudonyms, every
/// acknowledged POI present, every user's acknowledged update held.
void CheckRecovered(const World& w, const CloakDbService& live,
                    const CloakDbService& reopened, uint64_t seed,
                    CheckReport* report) {
  const auto battery = RecoveryBattery(w, seed);
  for (size_t i = 0; i < battery.size(); ++i) {
    ++report->checked;
    const QueryResponse a = live.ExecuteQuery(battery[i]);
    const QueryResponse b = reopened.ExecuteQuery(battery[i]);
    if (!a.ok() || !SameResponse(a, b)) {
      report->Fail(std::string("recovered ") +
                   cloakdb::QueryKindName(battery[i].kind) + " #" +
                   std::to_string(i) + " differs from the live service");
    }
  }
  // Whole-space range answers hold every POI of the category.
  for (size_t c = 0; c < w.categories.size(); ++c) {
    ++report->checked;
    const auto& want = w.pois[c];
    auto got = reopened.PrivateRange(w.space, 1.0, w.categories[c]);
    if (!got.ok() || SortedIds(got.value().candidates) != SortedIds(want)) {
      report->Fail("recovered service lost POIs of category " +
                   std::to_string(w.categories[c]));
    }
  }
  ++report->checked;
  auto everyone = reopened.PublicCount(w.space);
  if (!everyone.ok() || static_cast<size_t>(everyone.value().answer.max_count) != w.users.size()) {
    report->Fail("recovered service does not hold an update for every user");
  }
  for (const auto& u : w.users) {
    if (live.PseudonymOf(u.id).value_or(0) !=
        reopened.PseudonymOf(u.id).value_or(1)) {
      report->Fail("recovered pseudonym of user " + std::to_string(u.id) +
                   " differs");
      break;
    }
  }
}

/// Copies a data directory into `to` (replacing it) as a crash image.
bool CopyImage(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  return !ec;
}

// --- Metrics ---------------------------------------------------------------------------

struct RegDelta {
  cloakdb::obs::RegistrySnapshot before, after;
  uint64_t Counter(const std::string& name) const {
    auto a = after.counters.find(name);
    auto b = before.counters.find(name);
    return (a == after.counters.end() ? 0 : a->second) -
           (b == before.counters.end() ? 0 : b->second);
  }
  cloakdb::obs::HistogramSnapshot Hist(const std::string& name) const {
    auto a = after.histograms.find(name);
    if (a == after.histograms.end()) return {};
    auto b = before.histograms.find(name);
    if (b == before.histograms.end()) return a->second;
    return cloakdb::obs::HistogramDelta(a->second, b->second);
  }
};

/// A load phase is split into sub-windows and a statistic is taken per
/// sub-window. On a shared virtual machine the host now and then stops
/// every vCPU for several milliseconds, and for spells of seconds runs
/// everything 20-40% slower; such interference only ever adds time. Short
/// sub-windows confine it to the ones it falls in, and a timing reports the
/// quartile of the sub-window values on the fast side (kFastSide), which a
/// spell covering up to three quarters of the phase does not move. Timings
/// made of repeated short trials (ticks, probe rounds, reopens) report the
/// same quartile of their trials. With 20-second runs a sub-window holds
/// 250-500 open-loop queries, so its p95 rests on at least a dozen samples
/// beyond it.
constexpr int kSubWindows = 20;

/// The quantile over sub-windows or trials a timing reports: the lower
/// quartile of a latency or duration, the upper quartile of a rate.
constexpr double kFastSide = 0.25;

/// Reopen times are bimodal: a fast mode holding a quarter to a third of
/// the trials and a slow one about 25% above it. kFastSide sits at the
/// boundary and flips with the modes' shares, so recovery_s reports the
/// fastest tenth of its trials, well inside the fast mode.
constexpr double kFastReopen = 0.1;

std::vector<std::vector<double>> BySubWindow(
    const std::vector<QueryRecord>& records, double phase_s,
    double QueryRecord::*field) {
  std::vector<std::vector<double>> out(kSubWindows);
  for (const auto& r : records) {
    const int w = std::clamp(static_cast<int>(r.at_s / phase_s * kSubWindows),
                             0, kSubWindows - 1);
    out[w].push_back(r.answered ? r.*field
                                : std::numeric_limits<double>::infinity());
  }
  return out;
}

double QuantileOf(std::vector<double> v, double q) {
  Sample s;
  s.values = std::move(v);
  s.Finish();
  return s.Quantile(q);
}

double Median(std::vector<double> v) { return QuantileOf(std::move(v), 0.5); }

/// The `across`-quantile over sub-windows of each sub-window's q-quantile
/// of `field`.
double SubWindowQuantile(const std::vector<QueryRecord>& records,
                         double phase_s, double QueryRecord::*field, double q,
                         double across) {
  std::vector<double> per;
  for (auto& values : BySubWindow(records, phase_s, field)) {
    if (values.empty()) continue;
    per.push_back(QuantileOf(std::move(values), q));
  }
  return QuantileOf(std::move(per), across);
}

const char* KindKey(QueryKind kind) { return cloakdb::QueryKindName(kind); }

/// The per-layer metrics of a traced run (see README.md for the map from
/// each to the end-to-end metric it should move).
void PutPerLayer(const World& w, const std::vector<QueryRecord>& open,
                 const std::vector<QueryRecord>& closed, double open_s,
                 const RegDelta& reg, uint64_t updates, double untraced_p50,
                 uint64_t dropped_spans, uint64_t replayed,
                 TraceFolder* traced, MetricMap* m) {
  TraceFolder& folder = *traced;
  auto put = [&](const std::string& name, double v, const char* unit,
                 uint64_t base = 0) { (*m)[name] = Metric{v, unit, base}; };
  Sample open_lat, lag;
  for (const auto& q : open) {
    open_lat.Add(q.latency_us);
    lag.Add(q.lag_us);
  }
  open_lat.Finish();
  Sample wire, cloak, refine;
  std::map<QueryKind, uint64_t> cands_by_kind, n_by_kind;
  double achieved_ratio = 0.0, area = 0.0;
  uint64_t cloaks = 0, best_effort = 0, counts = 0;
  double count_width = 0.0;
  uint64_t cand_sum = 0, refined_sum = 0;
  std::vector<const QueryRecord*> timed;
  for (const auto& q : open) timed.push_back(&q);
  for (const auto& q : closed) timed.push_back(&q);
  for (const QueryRecord* record : timed) {
    const QueryRecord& q = *record;
    if (q.wire_us >= 0) wire.Add(q.wire_us);
    if (!q.answered) continue;
    if (q.kind == QueryKind::kPublicCount) {
      ++counts;
      count_width += static_cast<double>(q.count_max - q.count_min);
      continue;
    }
    cloak.Add(q.cloak_us);
    refine.Add(q.refine_us);
    cands_by_kind[q.kind] += q.candidates;
    cand_sum += q.candidates;
    refined_sum += q.refined_size;
    ++n_by_kind[q.kind];
    ++cloaks;
    achieved_ratio += static_cast<double>(q.achieved_k) / w.requirement.k;
    area += q.region.Area();
    best_effort +=
        (q.k_satisfied && q.min_area_satisfied && q.max_area_satisfied) ? 0
                                                                        : 1;
  }
  wire.Finish();
  cloak.Finish();
  refine.Finish();
  auto mean_of = [](const cloakdb::obs::HistogramSnapshot& h) {
    return h.mean();
  };
  // net
  put("net.wire_us.p50", wire.Quantile(0.5), "us", wire.size());
  put("net.wire_us.p99", wire.Quantile(0.99), "us", wire.size());
  const uint64_t frames = reg.Counter("net.frames_written_total");
  put("net.response_bytes.mean",
      frames == 0 ? 0.0
                  : static_cast<double>(
                        reg.Counter("net.bytes_written_total")) /
                        static_cast<double>(frames),
      "B", frames);
  put("net.pipeline_shed_total",
      static_cast<double>(reg.Counter("net.pipeline_shed_total")), "count");
  put("net.decode_errors_total",
      static_cast<double>(reg.Counter("net.decode_errors_total")), "count");
  // service
  const QueryKind kinds[] = {QueryKind::kPrivateRange, QueryKind::kPrivateNn,
                             QueryKind::kPrivateKnn, QueryKind::kPublicCount};
  for (QueryKind k : kinds) {
    const std::string key = KindKey(k);
    Sample& self = folder.self_us["query." + key];
    self.Finish();
    put("service.self_us.p50." + key, self.Quantile(0.5), "us", self.size());
    const auto merge = reg.Hist("query." + key + ".merge_us");
    put("service.merge_us.p50." + key, merge.p50(), "us", merge.count);
    const auto touched = reg.Hist("query." + key + ".shards_touched");
    put("service.shards_touched.mean." + key, mean_of(touched), "shards",
        touched.count);
  }
  Sample& probe_self = folder.self_us["shard.probe"];
  probe_self.Finish();
  put("service.shard_probe_self_us.p99", probe_self.Quantile(0.99), "us",
      probe_self.size());
  const auto qwait = reg.Hist("ingest.queue_wait_us");
  put("service.queue_wait_us.p50", qwait.p50(), "us", qwait.count);
  put("service.queue_wait_us.p99", qwait.p99(), "us", qwait.count);
  const auto batch = reg.Hist("ingest.batch_size");
  put("service.drain_batch.mean", batch.mean(), "updates", batch.count);
  put("service.blocked_push_us.sum", reg.Hist("queue.blocked_push_us").sum,
      "us");
  const uint64_t hits = reg.Counter("cache.hits_total");
  const uint64_t attempts = hits + reg.Counter("cache.misses_total");
  put("service.cache_hit_ratio",
      attempts == 0 ? 0.0 : static_cast<double>(hits) / attempts, "ratio",
      attempts);
  put("service.cache_attempts", static_cast<double>(attempts), "count");
  put("service.cache_evictions_total",
      static_cast<double>(reg.Counter("cache.lru_evictions_total")),
      "count");
  const auto width = reg.Hist("query.shared.batch_width");
  put("service.batch_width.mean", width.mean(), "queries", width.count);
  const auto fanin = reg.Hist("query.shared.cluster_fanin");
  put("service.cluster_fanin.mean", fanin.mean(), "queries", fanin.count);
  const auto affected = reg.Hist("cq.affected_per_update");
  put("service.cq_affected_per_update.mean", affected.mean(), "queries",
      affected.count);
  put("service.cq_refilters_total",
      static_cast<double>(reg.Counter("cq.incremental_refilters_total")),
      "count");
  put("service.cq_full_reevals_total",
      static_cast<double>(reg.Counter("cq.full_reevals_total")), "count");
  // core
  put("core.cloak_query_us.p50", cloak.Quantile(0.5), "us", cloak.size());
  put("core.cloak_query_us.p99", cloak.Quantile(0.99), "us", cloak.size());
  const auto cloak_batch = reg.Hist("ingest.cloak_us");
  put("core.cloak_batch_us.p50", cloak_batch.p50(), "us", cloak_batch.count);
  put("core.cloak_batch_us.p99", cloak_batch.p99(), "us", cloak_batch.count);
  put("core.achieved_k_ratio.mean",
      cloaks == 0 ? 0.0 : achieved_ratio / static_cast<double>(cloaks),
      "ratio", cloaks);
  put("core.cloak_area.mean",
      cloaks == 0 ? 0.0 : area / static_cast<double>(cloaks), "area",
      cloaks);
  put("core.best_effort_frac",
      cloaks == 0 ? 0.0
                  : static_cast<double>(best_effort) /
                        static_cast<double>(cloaks),
      "ratio", cloaks);
  // server
  put("server.refine_us.p50", refine.Quantile(0.5), "us", refine.size());
  for (QueryKind k : {QueryKind::kPrivateRange, QueryKind::kPrivateNn,
                      QueryKind::kPrivateKnn}) {
    put(std::string("server.candidates.mean.") + KindKey(k),
        n_by_kind[k] == 0 ? 0.0
                          : static_cast<double>(cands_by_kind[k]) /
                                static_cast<double>(n_by_kind[k]),
        "objects", n_by_kind[k]);
  }
  put("server.useful_ratio",
      cand_sum == 0 ? 0.0
                    : static_cast<double>(refined_sum) /
                          static_cast<double>(cand_sum),
      "ratio", cand_sum);
  put("server.count_width.mean",
      counts == 0 ? 0.0 : count_width / static_cast<double>(counts), "users",
      counts);
  // index
  for (QueryKind k : kinds) {
    const std::string key = KindKey(k);
    Sample& probe = folder.index_probe_us_by_kind["query." + key];
    probe.Finish();
    put("index.probe_us.p50." + key, probe.Quantile(0.5), "us",
        probe.size());
  }
  put("index.probes_per_query.mean",
      folder.service_queries == 0
          ? 0.0
          : static_cast<double>(folder.index_probes) /
                static_cast<double>(folder.service_queries),
      "probes", folder.service_queries);
  Sample& shared_probe = folder.dur_us["index.shared_probe"];
  shared_probe.Finish();
  put("index.shared_probe_us.p50", shared_probe.Quantile(0.5), "us",
      shared_probe.size());
  put("index.overlay_inserts_total",
      static_cast<double>(reg.Counter("index.static.overlay_inserts_total")),
      "count");
  put("index.compactions_total",
      static_cast<double>(reg.Counter("index.static.compactions_total")),
      "count");
  // storage (window deltas: zero on the static workloads)
  put("storage.wal_bytes_per_update",
      updates == 0 ? 0.0
                          : static_cast<double>(
                                reg.Counter("wal.bytes_total")) /
                                static_cast<double>(updates),
      "B", updates);
  put("storage.checkpoint_bytes_total",
      static_cast<double>(reg.Counter("checkpoint.bytes_total")), "B");
  const auto commit = reg.Hist("wal.commit_us");
  put("storage.wal_commit_us.p99", commit.p99(), "us", commit.count);
  put("storage.fsyncs_total",
      static_cast<double>(reg.Counter("wal.fsyncs_total")), "count");
  const auto ckpt = reg.Hist("checkpoint.duration_us");
  put("storage.checkpoint_us.p50", ckpt.p50(), "us", ckpt.count);
  put("storage.checkpoints_total",
      static_cast<double>(reg.Counter("checkpoint.completed_total")),
      "count");
  put("storage.replayed_records", static_cast<double>(replayed), "count");
  // obs: trace validity, and the stage ledger of the joined queries.
  Sample& stage = folder.stage_sum_us;
  Sample& residual = folder.residual_us;
  Sample& joined = folder.joined_latency_us;
  stage.Finish();
  residual.Finish();
  joined.Finish();
  put("obs.query_p50_us", open_lat.Quantile(0.5), "us", open_lat.size());
  put("obs.query_p99_us", open_lat.Quantile(0.99), "us", open_lat.size());
  put("obs.trace_overhead_frac",
      untraced_p50 > 0 ? open_lat.Quantile(0.5) / untraced_p50 - 1.0 : 0.0,
      "ratio");
  put("obs.spans_dropped_total",
      static_cast<double>(dropped_spans), "count");
  put("obs.stage_sum_us.p50", stage.Quantile(0.5), "us", stage.size());
  put("obs.residual_us.p50", residual.Quantile(0.5), "us", residual.size());
  for (const char* layer :
       {"bench", "core", "net", "service", "index", "server"}) {
    Sample& s = folder.layer_self_us[layer];
    s.Finish();
    put(std::string("obs.layer_self_us.p50.") + layer, s.Quantile(0.5), "us",
        s.size());
  }
  put("loadgen.lag_us.p99",
      SubWindowQuantile(open, open_s, &QueryRecord::lag_us, 0.99, 0.5), "us",
      lag.size());
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"wire_private",
                                                 "ingest_mixed",
                                                 "hotspot_shared"};
  return names;
}

int RunWorkload(const BenchArgs& args) {
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Spec spec = SpecFor(args.workload, args.tiny);
  const std::string run_dir = args.out_dir + "/" + args.workload + "-" +
                              std::to_string(args.seed) +
                              (args.trace ? "-traced" : "");
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  fs::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", run_dir.c_str());
    return 2;
  }
  const unsigned nproc = Nproc();
  const unsigned open_threads = nproc;
  const double open_s = args.seconds / 2;
  const double closed_s = args.seconds - open_s;

  // Set-up, repeated: setup_s is the median. In a traced run the first
  // set-up also measures the untraced open-loop p50 the trace overhead is
  // relative to, and only the last set-up is traced.
  constexpr int kSetups = 9;
  std::vector<double> setup_times, disk_rates;
  std::unique_ptr<Env> env;
  double untraced_p50 = 0.0;
  for (int r = 0; r < kSetups; ++r) {
    const bool traced = args.trace && r == kSetups - 1;
    std::string error;
    env = Setup(spec, args.seed, traced,
                run_dir + "/data-" + std::to_string(r), &error);
    if (env == nullptr) {
      std::fprintf(stderr, "setup failed: %s\n", error.c_str());
      return 2;
    }
    // Warm-up (part of set-up, never timed): caches, lazy paths, sockets.
    const auto warm_begin = Clock::now();
    const auto warm_ops = MakeOps(*env, 200, args.seed ^ 0x3A3A);
    for (size_t i = 0; i < warm_ops.size(); ++i) {
      Issue(*env, warm_ops[i],
            env->clients.empty() ? nullptr : env->clients[0].get(),
            Clock::now(), true);
    }
    env->setup_s += Seconds(Clock::now() - warm_begin);
    setup_times.push_back(env->setup_s);
    disk_rates.push_back(env->initial_disk_bytes_per_update);
    if (r == kSetups - 1) break;
    if (args.trace && r == 0) {
      // Untraced reference for obs.trace_overhead_frac: the same open loop
      // (beside the same ingest stream) on an untraced service.
      auto ops = MakeOps(*env, static_cast<size_t>(spec.offered_qps * open_s) + 1,
                         args.seed ^ 0x0FE2);
      std::atomic<bool> stop{false};
      IngestStats unused;
      std::thread ingester;
      if (spec.ingest)
        ingester = std::thread([&] { IngestLoop(*env, stop, &unused); });
      auto recs = OpenLoop(*env, ops, spec.offered_qps, open_s, open_threads,
                           !spec.ingest);
      stop = true;
      if (ingester.joinable()) ingester.join();
      Sample lat;
      for (const auto& q : recs) lat.Add(q.latency_us);
      lat.Finish();
      untraced_p50 = lat.Quantile(0.5);
    }
    env.reset();
    fs::remove_all(run_dir + "/data-" + std::to_string(r), ec);
  }
  CloakDbService& db = *env->db;
  const World& w = env->world;
  const bool static_world = !spec.ingest;
  std::unique_ptr<TraceFolder> folder;
  if (db.tracer() != nullptr) {
    db.tracer()->TakeCompletedSpans();  // Set-up spans are not traced work.
    folder = std::make_unique<TraceFolder>(db.tracer(), 200000);
    folder->Start();
  }

  // --- Timed window ---------------------------------------------------------
  const auto open_ops =
      MakeOps(*env, static_cast<size_t>(spec.offered_qps * open_s) + 1,
              args.seed ^ 0x0FE2);
  const auto closed_ops = MakeOps(*env, 50000, args.seed ^ 0xC105ED);
  RegDelta reg;
  reg.before = db.metrics().SnapshotAll();
  std::atomic<bool> stop_ingest{false};
  IngestStats ingest;
  std::thread ingest_thread;
  if (spec.ingest)
    ingest_thread = std::thread([&] { IngestLoop(*env, stop_ingest, &ingest); });
  const auto window_begin = Clock::now();
  // The open loop is repeated while its lag shows that the senders
  // themselves fell behind (the machine was disturbed), at most
  // kOpenAttempts times; a traced run keeps its first phase so the trace
  // covers exactly the reported queries. Repeated phases are still checked.
  std::vector<QueryRecord> open, discarded;
  double lag_p99 = 0.0;
  int open_attempts = 0;
  for (;;) {
    ++open_attempts;
    env->open_phase = true;
    open = OpenLoop(*env, open_ops, spec.offered_qps, open_s, open_threads,
                    static_world);
    env->open_phase = false;
    lag_p99 = SubWindowQuantile(open, open_s, &QueryRecord::lag_us, 0.99, 0.5);
    if (lag_p99 <= spec.lag_bound_us || args.trace ||
        open_attempts == kOpenAttempts)
      break;
    discarded.insert(discarded.end(), open.begin(), open.end());
  }
  // The ingest stream pauses for the closed loop: capacity beside a
  // stream would measure how the scheduler shares the cores between the
  // callers and the drain workers, not the query path.
  stop_ingest = true;
  if (ingest_thread.joinable()) ingest_thread.join();
  double closed_elapsed = 0.0;
  std::vector<QueryRecord> closed = ClosedLoop(
      *env, closed_ops, closed_s, nproc, static_world, &closed_elapsed);
  const double window_s = Seconds(Clock::now() - window_begin);
  reg.after = db.metrics().SnapshotAll();
  if (folder != nullptr) folder->Stop();

  // --- Barrier: quiesce, then verify ------------------------------------------
  CheckReport report;
  if (auto st = db.Flush(); !st.ok())
    report.Fail("barrier flush failed: " + st.ToString());
  std::vector<QueryRecord> barrier;
  size_t adopted_pois = 0;
  IngestStats extra;
  if (spec.ingest) {
    // The POIs opened during the window are part of the truth from here on.
    AdoptOpenedPois(*env, &adopted_pois);
    // Counts and private queries at the barrier see exactly the last tick.
    const uint32_t last = env->ticks_flushed.load();
    auto ops = MakeOps(*env, 200, args.seed ^ 0xBA55);
    cloakdb::Rng pick(args.seed ^ 0x7777);
    for (auto& op : ops) {
      // Barrier private queries may be issued by movers too.
      op.user_index = pick.NextBelow(w.users.size());
    }
    env->positions = env->history.back();
    for (const auto& op : ops) {
      QueryRecord q = Issue(*env, op, nullptr, Clock::now(), true);
      q.tick_lo = q.tick_hi = last;
      barrier.push_back(q);
    }
    CheckStanding(*env, &report);
  }
  const std::vector<QueryRecord>* phases[] = {&open, &closed, &barrier,
                                               &discarded};
  for (const auto* records : phases)
    CheckQueries(w, *records, env->history, nproc, &report);

  // Wire: every request answered and nothing undecodable.
  uint64_t unanswered = 0;
  for (const auto* records : phases)
    for (const auto& q : *records) unanswered += q.answered ? 0 : 1;
  if (spec.wire && reg.Counter("net.decode_errors_total") != 0)
    report.Fail("server saw decode errors");

  // --- Trials: crash image at a Flush + SyncWal barrier, reopens, probes ------
  if (spec.ingest) {
    // A fixed amount of log for recovery to replay: a checkpoint, then one
    // more tick. Otherwise recovery_s would depend on where in the
    // checkpoint cycle the window happened to end.
    if (auto st = db.Checkpoint(); !st.ok())
      report.Fail("checkpoint failed: " + st.ToString());
    IngestTick(*env, &extra);
    AdoptOpenedPois(*env, &adopted_pois);
  }
  if (auto st = db.SyncWal(); !st.ok())
    report.Fail("SyncWal failed: " + st.ToString());
  const std::string live_dir = run_dir + "/data-" + std::to_string(kSetups - 1);
  const std::string image = run_dir + "/crash-image";
  if (!CopyImage(live_dir, image)) report.Fail("cannot copy the crash image");
  std::vector<double> recovery_times, probe_ups;
  uint64_t replayed = 0;
  std::string recovery_line;
  // A traced run reports no end-to-end metric: one reopen for the checks.
  const int trials = args.trace ? 1 : kTrials;
  const auto trials_begin = Clock::now();
  for (int r = 0; r < trials; ++r) {
    std::this_thread::sleep_until(
        trials_begin + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               kTrialSpanSeconds * r / kTrials)));
    const std::string dir = run_dir + "/reopen-" + std::to_string(r);
    if (!CopyImage(image, dir)) {
      report.Fail("cannot copy the crash image");
      break;
    }
    CloakDbServiceOptions o = env->options;
    o.data_dir = dir;
    o.trace = {};
    const auto t0 = Clock::now();
    auto reopened = CloakDbService::Create(o);
    recovery_times.push_back(Seconds(Clock::now() - t0));
    if (!reopened.ok()) {
      report.Fail("reopen failed: " + reopened.status().ToString());
      break;
    }
    const auto& info = reopened.value()->recovery_info();
    replayed = info.replayed_records;
    if (r == 0) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "# recovery: checkpoints_loaded=%llu replayed=%llu "
                    "cq_reregistered=%llu\n",
                    static_cast<unsigned long long>(info.checkpoints_loaded),
                    static_cast<unsigned long long>(info.replayed_records),
                    static_cast<unsigned long long>(info.cq_reregistered));
      recovery_line = line;
      CheckRecovered(w, db, *reopened.value(), args.seed, &report);
    }
    reopened.value().reset();
    fs::remove_all(dir, ec);
    // The live service has been compared with the image; probing it now
    // changes nothing the image holds.
    if (static_world && !args.trace && !IngestProbe(*env, &probe_ups))
      report.Fail("ingest probe flush failed");
  }

  // --- Metrics ------------------------------------------------------------------------
  MetricMap m;
  auto put = [&](const std::string& name, double v, const char* unit,
                 uint64_t base = 0) { m[name] = Metric{v, unit, base}; };
  Sample open_lat;
  for (const auto& q : open) {
    open_lat.Add(q.answered ? q.latency_us
                            : std::numeric_limits<double>::infinity());
  }
  open_lat.Finish();
  uint64_t private_n = 0, cand_sum = 0;
  for (const auto* records : {&open, &closed}) {
    for (const auto& q : *records) {
      if (!q.answered || q.kind == QueryKind::kPublicCount) continue;
      ++private_n;
      cand_sum += q.candidates;
    }
  }
  const double ingest_ups = QuantileOf(
      spec.ingest ? ingest.tick_ups : probe_ups, 1.0 - kFastSide);
  const double disk_per_update =
      spec.ingest && ingest.updates > 0
          ? static_cast<double>(reg.Counter("wal.bytes_total") +
                                reg.Counter("checkpoint.bytes_total")) /
                static_cast<double>(ingest.updates)
          : Median(disk_rates);

  if (!args.trace) {
    put("setup_s", Median(setup_times), "s", setup_times.size());
    put("query_p50_us",
        SubWindowQuantile(open, open_s, &QueryRecord::latency_us, 0.5,
                          kFastSide),
        "us", open_lat.size());
    put("query_p95_us",
        SubWindowQuantile(open, open_s, &QueryRecord::latency_us, 0.95,
                          kFastSide),
        "us", open_lat.size());
    std::vector<double> rates;
    for (const auto& values :
         BySubWindow(closed, closed_elapsed, &QueryRecord::latency_us)) {
      rates.push_back(static_cast<double>(values.size()) /
                      (closed_elapsed / kSubWindows));
    }
    put("query_capacity_qps", QuantileOf(std::move(rates), 1.0 - kFastSide),
        "1/s", closed.size());
    put("ingest_ups", ingest_ups, "1/s",
        spec.ingest ? ingest.updates
                    : w.users.size() * probe_ups.size());
    put("candidates_mean",
        private_n == 0 ? 0.0
                       : static_cast<double>(cand_sum) / private_n,
        "objects", private_n);
    put("disk_bytes_per_update", disk_per_update, "B",
        spec.ingest ? ingest.updates : w.users.size());
    put("recovery_s", QuantileOf(recovery_times, kFastReopen), "s",
        recovery_times.size());
    put("peak_rss_mb", PeakRssMiB(), "MiB");
  } else {
    PutPerLayer(w, open, closed, open_s, reg, ingest.updates, untraced_p50,
                db.tracer()->dropped_spans(), replayed, folder.get(), &m);
    // One file with the benchmark's and the service's spans.
    std::ofstream(run_dir + "/trace.json")
        << cloakdb::obs::ExportChromeTrace(folder->exported);
  }

  // --- Validity, metadata and output -------------------------------------------
  const bool valid = lag_p99 <= spec.lag_bound_us;
  const uint64_t attempted = env->attempted + open.size() + closed.size() +
                             discarded.size() + ingest.updates +
                             ingest.pois_added + extra.updates +
                             extra.pois_added + barrier.size();
  const uint64_t failed = env->failed + ingest.failed + extra.failed +
                          unanswered;
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  const char* sha = std::getenv("CLOAKBENCH_GIT_SHA");

  std::printf("# cloakbench %s seed=%llu trace=%d seconds=%.1f\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              args.seconds);
  std::printf("# host=%s nproc=%u build=%s sha=%s\n", host, nproc,
              CLOAKBENCH_BUILD_TYPE, sha != nullptr ? sha : "unknown");
  std::printf("# world: users=%zu stationary=%zu pois/category=%zu "
              "categories=%zu shards=%u standing=%zu\n",
              w.users.size(), spec.stationary, spec.pois_per_category,
              w.categories.size(), env->options.num_shards,
              env->standing.size());
  std::printf("# load: offered=%.0f q/s x %.1fs (%u senders), closed loop "
              "%u callers x %.1fs, window %.2fs%s\n",
              spec.offered_qps, open_s, open_threads, nproc, closed_s,
              window_s, spec.wire ? ", loopback wire" : ", in process");
  if (spec.ingest) {
    std::printf("# ingest: ticks=%llu updates=%llu pois_added=%llu "
                "busy=%.2fs\n",
                static_cast<unsigned long long>(ingest.ticks),
                static_cast<unsigned long long>(ingest.updates),
                static_cast<unsigned long long>(ingest.pois_added),
                ingest.busy_s);
  }
  std::printf("%s", recovery_line.c_str());
  std::printf("# open-loop latency us: p50=%.0f p90=%.0f p95=%.0f p99=%.0f "
              "p99.9=%.0f max=%.0f\n",
              open_lat.Quantile(0.5), open_lat.Quantile(0.9),
              open_lat.Quantile(0.95), open_lat.Quantile(0.99),
              open_lat.Quantile(0.999), open_lat.Quantile(1.0));
  std::printf("# loadgen.lag_us.p99=%.1f (bound %.0f): open loop %s after "
              "%d attempt(s)\n",
              lag_p99, spec.lag_bound_us, valid ? "valid" : "INVALID",
              open_attempts);
  std::printf("# error_frac=%.6f (%llu of %llu operations)\n",
              attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const auto& [name, metric] : m) {
    std::printf("%-40s %14.4f %-8s", name.c_str(), metric.value,
                metric.unit.c_str());
    if (metric.base > 0)
      std::printf(" (n=%llu)", static_cast<unsigned long long>(metric.base));
    std::printf("\n");
  }
  if (args.trace) {
    std::printf("# stage ledger: query_p50_us=%.1f stage_sum_p50=%.1f "
                "residual_p50=%.1f (%zu joined queries)%s\n",
                m["obs.query_p50_us"].value, m["obs.stage_sum_us.p50"].value,
                m["obs.residual_us.p50"].value,
                folder->stage_sum_us.size(),
                m["obs.spans_dropped_total"].value > 0 ? " TRACE INCOMPLETE"
                                                       : "");
  }
  std::printf("# checks: %llu verified, %llu failed\n",
              static_cast<unsigned long long>(report.checked),
              static_cast<unsigned long long>(report.failures));
  for (const auto& msg : report.messages)
    std::printf("# CHECK FAILED: %s\n", msg.c_str());

  // Full result file with metadata, bases and validity.
  std::string meta = "{\"workload\":" + JsonString(args.workload) +
                     ",\"seed\":" + std::to_string(args.seed) +
                     ",\"trace\":" + (args.trace ? "true" : "false") +
                     ",\"seconds\":" + JsonNumber(args.seconds) +
                     ",\"git_sha\":" + JsonString(sha != nullptr ? sha : "unknown") +
                     ",\"host\":" + JsonString(host) +
                     ",\"nproc\":" + std::to_string(nproc) +
                     ",\"build_type\":" + JsonString(CLOAKBENCH_BUILD_TYPE) +
                     ",\"users\":" + std::to_string(w.users.size()) +
                     ",\"pois_per_category\":" +
                     std::to_string(spec.pois_per_category) +
                     ",\"offered_qps\":" + JsonNumber(spec.offered_qps) +
                     ",\"open_loop_valid\":" + (valid ? "true" : "false") +
                     ",\"open_loop_attempts\":" + std::to_string(open_attempts) +
                     ",\"checks\":" + std::to_string(report.checked) +
                     ",\"check_failures\":" + std::to_string(report.failures) +
                     ",\"samples\":{";
  std::string metrics_json;
  for (const auto& [name, metric] : m) {
    if (!metrics_json.empty()) metrics_json += ",";
    metrics_json += JsonString(name) + ":{\"value\":" +
                    JsonNumber(metric.value) +
                    ",\"unit\":" + JsonString(metric.unit) + "}";
    if (metric.base > 0) {
      meta += (meta.back() == '{' ? "" : ",") + JsonString(name) + ":" +
              std::to_string(metric.base);
    }
  }
  meta += "}}";
  std::ofstream(run_dir + "/result.json")
      << "{\"meta\":" << meta << ",\"metrics\":{" << metrics_json << "}}\n";

  // Tear down before the result line so every thread has stopped; the
  // folder reads the service's tracer, so it goes first.
  folder.reset();
  env.reset();
  fs::remove_all(run_dir + "/data-" + std::to_string(kSetups - 1), ec);
  fs::remove_all(image, ec);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json.c_str());
  std::fflush(stdout);
  return report.ok() ? 0 : 1;
}

int RunCheckerSelfTest(const std::string& out_dir) {
  int escaped = 0;
  auto expect = [&](const char* what, bool must_fail, const CheckReport& r) {
    const bool failed = !r.ok();
    std::printf("%-58s %s\n", what,
                failed == must_fail ? (must_fail ? "rejected" : "accepted")
                                    : "WRONG VERDICT");
    if (failed != must_fail) ++escaped;
  };

  // A small static world with a known answer for every query.
  World w;
  cloakdb::Rng rng(42);
  w.requirement = {5, 1.0, 100.0};
  for (ObjectId id = 1; id <= 200; ++id)
    w.users.push_back({id, {rng.Uniform(0, 100), rng.Uniform(0, 100)}});
  w.categories = {cloakdb::poi_category::kGasStation};
  w.pois.emplace_back();
  w.poi_stripes.emplace_back();
  for (ObjectId id = 0; id < 500; ++id) {
    w.pois[0].push_back({1'000'000 + id,
                         {rng.Uniform(0, 100), rng.Uniform(0, 100)},
                         w.categories[0],
                         "p"});
    w.poi_stripes[0].push_back(0);
  }
  const Point at = w.users[0].location;
  QueryRecord base;
  base.issuer = w.users[0].id;
  base.true_loc = at;
  base.region = Rect::CenteredSquare(at, 30.0);
  base.k_satisfied = base.min_area_satisfied = base.max_area_satisfied = true;
  base.max_area_satisfied = false;  // 900 > A_max: flagged best effort.
  base.quiescent = true;
  base.radius = 15.0;
  base.k = 4;

  // Candidate lists: everything (a correct superset), and the same list
  // with one true answer object dropped.
  for (QueryKind kind : {QueryKind::kPrivateRange, QueryKind::kPrivateNn,
                         QueryKind::kPrivateKnn}) {
    const size_t k = kind == QueryKind::kPrivateNn ? 1 : base.k;
    const auto nearest = TruthKnnDistances(w.pois[0], at, k);
    QueryResponse good;
    good.kind = kind;
    good.candidates = w.pois[0];
    QueryResponse broken = good;
    for (size_t i = 0; i < broken.candidates.size(); ++i) {
      const double d = cloakdb::Distance(broken.candidates[i].location, at);
      const bool in_answer = kind == QueryKind::kPrivateRange
                                 ? d <= base.radius
                                 : d == nearest.back();
      if (in_answer) {
        broken.candidates.erase(broken.candidates.begin() +
                                static_cast<long>(i));
        break;
      }
    }
    for (bool drop : {false, true}) {
      QueryRecord r = base;
      r.kind = kind;
      RecordAnswer(drop ? broken : good, &r);
      CheckReport report;
      CheckQueries(w, {r}, {}, 1, &report);
      const std::string what = std::string(cloakdb::QueryKindName(kind)) +
                               (drop ? ": one true candidate dropped"
                                     : ": complete candidate list");
      expect(what.c_str(), drop, report);
    }
  }

  // Cloaks: a tiny region around the issuer holds fewer than k users.
  {
    QueryResponse good;
    good.kind = QueryKind::kPrivateNn;
    good.candidates = w.pois[0];
    for (bool flagged : {true, false}) {
      QueryRecord r = base;
      r.kind = QueryKind::kPrivateNn;
      r.region = Rect::CenteredSquare(at, 1.2);
      r.k_satisfied = !flagged;
      r.max_area_satisfied = true;
      RecordAnswer(good, &r);
      CheckReport report;
      CheckQueries(w, {r}, {}, 1, &report);
      expect(flagged ? "cloak below k, flagged best effort"
                     : "cloak below k, not flagged",
             !flagged, report);
    }
    QueryRecord r = base;
    r.kind = QueryKind::kPrivateNn;
    r.region = Rect::CenteredSquare({at.x + 40, at.y + 40}, 30.0);
    RecordAnswer(good, &r);
    CheckReport report;
    CheckQueries(w, {r}, {}, 1, &report);
    expect("cloak not containing the issuer", true, report);
  }

  // Public counts: the interval must hold the true count.
  {
    const Rect window{20, 20, 60, 60};
    std::vector<Point> where;
    for (const auto& u : w.users) where.push_back(u.location);
    const uint64_t truth = CountUsersIn(where, window);
    for (bool broken : {false, true}) {
      QueryRecord r;
      r.kind = QueryKind::kPublicCount;
      r.region = window;
      QueryResponse resp;
      resp.kind = QueryKind::kPublicCount;
      resp.count_min = broken ? truth + 1 : truth - 2;
      resp.count_max = truth + 3;
      RecordAnswer(resp, &r);
      CheckReport report;
      CheckQueries(w, {r}, {}, 1, &report);
      expect(broken ? "count interval above the true count"
                    : "count interval holding the true count",
             broken, report);
    }
  }

  // Recovery: a crash image whose WAL lost its last acknowledged update.
  {
    Spec spec = SpecFor("wire_private", true);
    spec.wire = false;
    const std::string dir = out_dir + "/selftest";
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    std::string error;
    auto env = Setup(spec, 7, false, dir + "/live", &error);
    if (env == nullptr) {
      std::printf("recovery self-test setup failed: %s\n", error.c_str());
      return escaped + 1;
    }
    CloakDbService& db = *env->db;
    // A late user whose only update is the last WAL record of its shard.
    const cloakdb::PointEntry late{999999, {50.5, 50.5}};
    (void)db.RegisterUser(
        late.id,
        cloakdb::PrivacyProfile::Uniform(env->world.requirement).value());
    (void)db.EnqueueUpdate(late.id, late.location, kNoon);
    (void)db.Flush();
    (void)db.SyncWal();
    env->world.users.push_back(late);
    const std::string wal = dir + "/image-broken/shard-" +
                            std::to_string(db.ShardOfUser(late.id)) +
                            "/wal.log";
    for (bool broken : {false, true}) {
      const std::string image =
          dir + (broken ? "/image-broken" : "/image-intact");
      CopyImage(dir + "/live", image);
      if (broken) fs::resize_file(wal, fs::file_size(wal, ec) - 1, ec);
      CloakDbServiceOptions o = env->options;
      o.data_dir = image;
      auto reopened = CloakDbService::Create(o);
      CheckReport report;
      if (!reopened.ok()) {
        report.Fail("reopen failed");
      } else {
        CheckRecovered(env->world, db, *reopened.value(), 7, &report);
      }
      expect(broken ? "recovery image missing an acknowledged update"
                    : "intact recovery image",
             broken, report);
    }
    env.reset();
    fs::remove_all(dir, ec);
  }
  std::printf("checker self-test: %d wrong verdicts\n", escaped);
  return escaped;
}

}  // namespace cloakbench

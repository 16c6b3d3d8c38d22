// Shared declarations of the CloakDB repository benchmark (cloakbench).
//
// The benchmark links libcloakdb and drives it only through public entry
// points: CloakDbService, net::CloakServer / net::CloakClient, the
// Refine*Candidates helpers and the metrics() registry. It generates every
// input itself from a seed (src/sim) and keeps its own copy of the world,
// so each answer can be checked against brute-force truth after the timed
// window.
#ifndef CLOAKDB_PERFBENCH_BENCH_H_
#define CLOAKDB_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/privacy_profile.h"
#include "geom/rect.h"
#include "index/grid_index.h"
#include "server/object_store.h"
#include "service/api.h"
#include "util/status.h"

namespace cloakbench {

using cloakdb::Category;
using cloakdb::ObjectId;
using cloakdb::Point;
using cloakdb::PublicObject;
using cloakdb::QueryKind;
using cloakdb::Rect;

// --- World: the benchmark's own copy of everything it generates ----------

/// Static description of the generated world. The program under test sees
/// only the generated users, movements and POIs; the benchmark keeps this
/// copy for brute-force truth.
struct World {
  Rect space{0.0, 0.0, 100.0, 100.0};
  /// Initial user locations (ids are consecutive from 1).
  std::vector<cloakdb::PointEntry> users;
  /// Queried POI categories and their objects, index-aligned.
  std::vector<Category> categories;
  std::vector<std::vector<PublicObject>> pois;
  /// Stripe (service shard) owning each POI, index-aligned with `pois`;
  /// used to restrict truth to the covered stripes of degraded answers.
  std::vector<std::vector<uint32_t>> poi_stripes;
  /// The privacy requirement every user registers with.
  cloakdb::PrivacyRequirement requirement;
};

/// Ids of all `pois` within `radius` of `from` (Distance <= radius, the
/// same predicate RefineRangeCandidates applies).
std::vector<ObjectId> TruthRange(const std::vector<PublicObject>& pois,
                                 const Point& from, double radius);
/// Ascending distances of the k nearest `pois` to `from`.
std::vector<double> TruthKnnDistances(const std::vector<PublicObject>& pois,
                                      const Point& from, size_t k);
/// Order-independent 64-bit digest of a set of object ids.
uint64_t IdSetDigest(const std::vector<ObjectId>& ids);

// --- One recorded operation ------------------------------------------------

/// Everything the checker needs about one answered query, kept compact so
/// a whole timed window fits in memory: refined answers are stored as a
/// digest (range), an id (NN) or distances (kNN), never as lists.
struct QueryRecord {
  QueryKind kind = QueryKind::kPrivateRange;
  uint32_t cat_index = 0;
  ObjectId issuer = 0;
  Point true_loc;
  double radius = 0.0;
  uint32_t k = 1;
  // Cloak of the issuer (private kinds).
  Rect region;
  uint32_t achieved_k = 0;
  bool k_satisfied = false;
  bool min_area_satisfied = false;
  bool max_area_satisfied = false;
  /// The user population was quiescent while cloaking, so the benchmark's
  /// own count of users inside the cloak is exact.
  bool quiescent = false;
  // Response.
  cloakdb::ErrorCode error = cloakdb::ErrorCode::kOk;
  bool answered = false;
  bool lost = false;  ///< Wire: the request got no response frame.
  bool degraded = false;
  uint64_t covered_shards = 0;
  uint32_t candidates = 0;
  uint32_t refined_size = 0;
  uint64_t refined_digest = 0;          ///< Range: IdSetDigest of refined.
  /// NN/kNN: ascending distances of the first refined_size refined
  /// objects (k is at most kMaxRefinedK).
  static constexpr size_t kMaxRefinedK = 8;
  double refined_dists[kMaxRefinedK] = {};
  // Public count (window in `region`).
  uint64_t count_min = 0;
  uint64_t count_max = 0;
  /// Ticks whose positions may be visible to the count: [tick_lo, tick_hi].
  uint32_t tick_lo = 0;
  uint32_t tick_hi = 0;
  /// Seconds into its load phase: the scheduled send (open loop) or the
  /// completion (closed loop); assigns the record to a sub-window.
  double at_s = 0.0;
  // Timing (microseconds).
  double latency_us = 0.0;  ///< From the scheduled send to the answer.
  double lag_us = 0.0;      ///< How late the send ran against schedule.
  double cloak_us = 0.0;
  double refine_us = 0.0;
  double wire_us = -1.0;    ///< Round trip minus server time; <0 = none.
};

/// Builds the answer part of `record` by refining `response`'s candidates
/// at `record.true_loc` with the library's client-side helpers. Degraded
/// answers are refined over their covered stripes only.
void RecordAnswer(const cloakdb::QueryResponse& response, QueryRecord* record);

/// Position history of the moving population, one row per tick (tick 0 is
/// the initial report), index-aligned with World::users.
using PositionHistory = std::vector<std::vector<Point>>;

// --- Checker ----------------------------------------------------------------

/// Outcome of the correctness checks of one run.
struct CheckReport {
  uint64_t checked = 0;
  uint64_t failures = 0;
  std::vector<std::string> messages;  ///< First few failures, for humans.
  void Fail(const std::string& message);
  bool ok() const { return failures == 0; }
};

/// Verifies every answered query record against the world (and fails any
/// wire request that got no response); adds to `report`:
///  - private range/NN/kNN: refined answer equals brute-force truth (kNN by
///    distance; degraded answers on covered stripes only);
///  - every cloak contains the issuer, meets A_min/A_max or is flagged;
///  - quiescent cloaks hold >= k users unless flagged;
///  - public counts: count_min <= truth <= count_max over the positions
///    the count may have seen (`history`; empty = static world).
/// `threads` parallelizes the brute force.
void CheckQueries(const World& world, const std::vector<QueryRecord>& records,
                  const PositionHistory& history, unsigned threads,
                  CheckReport* report);

/// Number of world users inside `region` at positions `where`.
uint64_t CountUsersIn(const std::vector<Point>& where, const Rect& region);

// --- Statistics and output ----------------------------------------------------

/// A sorted sample of measurements.
struct Sample {
  std::vector<double> values;
  void Add(double v) { values.push_back(v); }
  void Finish();  ///< Sorts; call before quantiles.
  double Quantile(double q) const;
  size_t size() const { return values.size(); }
};

/// One reported metric: value plus unit and, for percentiles and ratios,
/// the sample count or base behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t base = 0;  ///< Samples behind a percentile / base of a ratio.
};
using MetricMap = std::map<std::string, Metric>;

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMiB();

/// JSON helpers for the result lines. Numbers keep every digit of the
/// double (obs::AppendJsonNumber keeps six, too few for a measurement).
std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

}  // namespace cloakbench

#endif  // CLOAKDB_PERFBENCH_BENCH_H_

// Brute-force truth and the answer checker of cloakbench.
//
// Every check here rests on a guarantee the library documents and the
// benchmark can verify exactly: the candidate list holds the exact answer
// for every location inside the cloak, each cloak contains its issuer and
// meets its profile or is flagged best effort, and count intervals bound
// the true count. Properties the code does not have (candidate lists that
// do not depend on the shard count, cloaks that repeat across runs) are
// deliberately not asserted.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "geom/distance.h"
#include "server/private_queries.h"

namespace cloakbench {

namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string Describe(const QueryRecord& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s issuer=%llu at (%.4f,%.4f)",
                cloakdb::QueryKindName(r.kind),
                static_cast<unsigned long long>(r.issuer), r.true_loc.x,
                r.true_loc.y);
  return buf;
}

// POIs of one category restricted to the stripes in `covered_shards` of a
// degraded answer; `scratch` holds the restricted copy.
const std::vector<PublicObject>& TruthObjects(
    const World& world, const QueryRecord& r,
    std::vector<PublicObject>* scratch) {
  const auto& pois = world.pois[r.cat_index];
  if (!r.degraded) return pois;
  for (size_t i = 0; i < pois.size(); ++i) {
    const uint32_t stripe = world.poi_stripes[r.cat_index][i];
    if (stripe < 64 && (r.covered_shards & (uint64_t{1} << stripe)) != 0)
      scratch->push_back(pois[i]);
  }
  return *scratch;
}

void CheckCloak(const World& world, const QueryRecord& r,
                const std::vector<Point>& positions, CheckReport* report) {
  const auto& req = world.requirement;
  const double area = r.region.Area();
  if (!r.region.Contains(r.true_loc))
    report->Fail(Describe(r) + ": cloak does not contain the issuer");
  if (r.min_area_satisfied && area < req.min_area)
    report->Fail(Describe(r) + ": cloak below A_min but not flagged");
  if (r.max_area_satisfied && area > req.max_area)
    report->Fail(Describe(r) + ": cloak above A_max but not flagged");
  if (r.quiescent && r.k_satisfied) {
    const uint64_t inside = CountUsersIn(positions, r.region);
    if (inside < req.k) {
      report->Fail(Describe(r) + ": cloak holds " + std::to_string(inside) +
                   " users < k=" + std::to_string(req.k) +
                   " but is not flagged best effort");
    }
  }
}

void CheckAnswer(const World& world, const QueryRecord& r,
                 CheckReport* report) {
  std::vector<PublicObject> scratch;
  const auto& objects = TruthObjects(world, r, &scratch);
  switch (r.kind) {
    case QueryKind::kPrivateRange: {
      const auto truth = TruthRange(objects, r.true_loc, r.radius);
      if (truth.size() != r.refined_size ||
          IdSetDigest(truth) != r.refined_digest) {
        report->Fail(Describe(r) + ": refined range answer has " +
                     std::to_string(r.refined_size) + " objects, truth " +
                     std::to_string(truth.size()) + " (or differs)");
      }
      break;
    }
    case QueryKind::kPrivateNn:
    case QueryKind::kPrivateKnn: {
      const size_t k = r.kind == QueryKind::kPrivateNn ? 1 : r.k;
      const auto truth = TruthKnnDistances(objects, r.true_loc, k);
      if (truth.size() != r.refined_size ||
          !std::equal(truth.begin(), truth.end(), r.refined_dists)) {
        report->Fail(Describe(r) + ": refined k=" + std::to_string(k) +
                     " neighbours differ from brute force by distance");
      }
      break;
    }
    default:
      break;
  }
}

void CheckCount(const QueryRecord& r, const std::vector<Point>& initial,
                const PositionHistory& history, CheckReport* report) {
  uint64_t all_inside = 0, any_inside = 0;
  const size_t n = history.empty() ? initial.size() : history.front().size();
  for (size_t u = 0; u < n; ++u) {
    bool all = true, any = false;
    if (history.empty()) {
      all = any = r.region.Contains(initial[u]);
    } else {
      for (uint32_t t = r.tick_lo; t <= r.tick_hi && t < history.size(); ++t) {
        const bool in = r.region.Contains(history[t][u]);
        all = all && in;
        any = any || in;
      }
    }
    all_inside += all ? 1 : 0;
    any_inside += any ? 1 : 0;
  }
  // count_min counts users certainly inside, count_max users possibly
  // inside; every visible cloak contains one of the user's positions.
  if (r.count_min > any_inside || r.count_max < all_inside) {
    report->Fail("public count window [" + std::to_string(r.region.min_x) +
                 "," + std::to_string(r.region.min_y) + "]: interval [" +
                 std::to_string(r.count_min) + "," +
                 std::to_string(r.count_max) + "] misses true count in [" +
                 std::to_string(all_inside) + "," +
                 std::to_string(any_inside) + "]");
  }
}

}  // namespace

std::vector<ObjectId> TruthRange(const std::vector<PublicObject>& pois,
                                 const Point& from, double radius) {
  std::vector<ObjectId> ids;
  for (const auto& poi : pois) {
    if (cloakdb::Distance(poi.location, from) <= radius) ids.push_back(poi.id);
  }
  return ids;
}

std::vector<double> TruthKnnDistances(const std::vector<PublicObject>& pois,
                                      const Point& from, size_t k) {
  std::vector<double> d;
  d.reserve(pois.size());
  for (const auto& poi : pois) d.push_back(cloakdb::Distance(poi.location, from));
  k = std::min(k, d.size());
  std::partial_sort(d.begin(), d.begin() + static_cast<long>(k), d.end());
  d.resize(k);
  return d;
}

uint64_t IdSetDigest(const std::vector<ObjectId>& ids) {
  uint64_t digest = 0;
  for (ObjectId id : ids) digest += Mix64(id);
  return digest;
}

void RecordAnswer(const cloakdb::QueryResponse& response, QueryRecord* r) {
  r->error = response.error;
  r->answered = response.ok();
  if (!r->answered) return;
  r->degraded = response.degraded;
  r->covered_shards = response.covered_shards;
  if (r->kind == QueryKind::kPublicCount) {
    r->count_min = response.count_min;
    r->count_max = response.count_max;
    return;
  }
  // A degraded list only ever holds objects of covered stripes, so refining
  // it yields the covered-stripe answer the checker compares against.
  const auto& cands = response.candidates;
  r->candidates = static_cast<uint32_t>(cands.size());
  switch (r->kind) {
    case QueryKind::kPrivateRange: {
      const auto refined =
          cloakdb::RefineRangeCandidates(cands, r->true_loc, r->radius);
      std::vector<ObjectId> ids;
      ids.reserve(refined.size());
      for (const auto& o : refined) ids.push_back(o.id);
      r->refined_size = static_cast<uint32_t>(ids.size());
      r->refined_digest = IdSetDigest(ids);
      break;
    }
    case QueryKind::kPrivateNn: {
      auto nn = cloakdb::RefineNnCandidates(cands, r->true_loc);
      if (nn.ok()) {
        r->refined_size = 1;
        r->refined_dists[0] = cloakdb::Distance(nn.value().location, r->true_loc);
      }
      break;
    }
    case QueryKind::kPrivateKnn: {
      const auto knn = cloakdb::RefineKnnCandidates(
          cands, r->true_loc, std::min<size_t>(r->k, QueryRecord::kMaxRefinedK));
      r->refined_size = static_cast<uint32_t>(knn.size());
      for (size_t i = 0; i < knn.size(); ++i)
        r->refined_dists[i] = cloakdb::Distance(knn[i].location, r->true_loc);
      break;
    }
    default:
      break;
  }
}

void CheckReport::Fail(const std::string& message) {
  ++failures;
  if (messages.size() < 8) messages.push_back(message);
}

uint64_t CountUsersIn(const std::vector<Point>& where, const Rect& region) {
  uint64_t n = 0;
  for (const auto& p : where) n += region.Contains(p) ? 1 : 0;
  return n;
}

void CheckQueries(const World& world, const std::vector<QueryRecord>& records,
                  const PositionHistory& history, unsigned threads,
                  CheckReport* report) {
  std::vector<Point> initial;
  initial.reserve(world.users.size());
  for (const auto& u : world.users) initial.push_back(u.location);
  threads = std::max(1u, threads);
  std::vector<CheckReport> parts(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      CheckReport& part = parts[t];
      for (size_t i = t; i < records.size(); i += threads) {
        const QueryRecord& r = records[i];
        if (r.lost) part.Fail(Describe(r) + ": request got no response");
        if (!r.answered) continue;
        ++part.checked;
        if (r.kind == QueryKind::kPublicCount) {
          CheckCount(r, initial, history, &part);
          continue;
        }
        // Quiescent cloaks are checked against the positions in force:
        // the initial ones for a static world, the tick row otherwise.
        const std::vector<Point>& positions =
            history.empty() ? initial
                            : history[std::min<size_t>(r.tick_hi,
                                                       history.size() - 1)];
        CheckCloak(world, r, positions, &part);
        CheckAnswer(world, r, &part);
      }
    });
  }
  for (auto& th : pool) th.join();
  for (auto& part : parts) {
    report->checked += part.checked;
    report->failures += part.failures;
    for (auto& m : part.messages) {
      if (report->messages.size() < 8) report->messages.push_back(m);
    }
  }
}

}  // namespace cloakbench

#include "service/continuous_registry.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "geom/distance.h"
#include "obs/trace.h"
#include "server/private_queries.h"

namespace cloakdb {

namespace {

/// The closed ball around `center` lies inside `rect` (a ball is inside a
/// rectangle iff its bounding square is).
bool BallInside(const Point& center, double radius, const Rect& rect) {
  return center.x - radius >= rect.min_x && center.x + radius <= rect.max_x &&
         center.y - radius >= rect.min_y && center.y + radius <= rect.max_y;
}

/// The k-th smallest distance from `from` to the fetched objects (caller
/// guarantees fetched.size() >= k >= 1). Selects on squared distances:
/// sqrt is monotone, so the root of the k-th square is the k-th distance.
double KthCornerDist(const Point& from, const std::vector<PublicObject>& fetched,
                     size_t k) {
  std::vector<double> dists;
  dists.reserve(fetched.size());
  for (const auto& o : fetched) {
    const double dx = o.location.x - from.x;
    const double dy = o.location.y - from.y;
    dists.push_back(dx * dx + dy * dy);
  }
  std::nth_element(dists.begin(), dists.begin() + (k - 1), dists.end());
  return std::sqrt(dists[k - 1]);
}

size_t EffectiveK(const ContinuousSpec& spec) {
  if (spec.kind == QueryKind::kPrivateNn) return 1;
  return spec.k == 0 ? 1 : spec.k;
}

/// Candidates entering plus leaving between two id-sorted answers.
uint64_t SymmetricDelta(const std::vector<PublicObject>& a,
                        const std::vector<PublicObject>& b) {
  size_t i = 0, j = 0;
  uint64_t delta = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].id == b[j].id) {
      ++i;
      ++j;
    } else if (a[i].id < b[j].id) {
      ++delta;
      ++i;
    } else {
      ++delta;
      ++j;
    }
  }
  return delta + (a.size() - i) + (b.size() - j);
}

}  // namespace

bool StandingCoverageHolds(const ContinuousSpec& spec, const Rect& region,
                           const StandingSnapshot& snap, double* reach) {
  if (spec.kind == QueryKind::kPrivateRange) {
    *reach = spec.radius;
    return snap.coverage.Contains(region.Expanded(spec.radius));
  }
  const size_t k = EffectiveK(spec);
  if (snap.fetched.size() <= k) {
    // Pigeonhole snapshot (the fetch holds the whole category): every
    // object is a candidate for any region the coverage contains.
    *reach = 0.0;
    return snap.coverage.Contains(region);
  }
  // The cached corner distances are exact only when each corner's k-th
  // candidate ball is fully fetched; the conservative reach built from
  // them must then also stay inside the coverage.
  double max_kth = 0.0;
  for (const Point& corner : region.Corners()) {
    const double d = KthCornerDist(corner, snap.fetched, k);
    if (!BallInside(corner, d, snap.coverage)) return false;
    max_kth = std::max(max_kth, d);
  }
  *reach = max_kth + HalfDiagonal(region);
  return snap.coverage.Contains(region.Expanded(*reach));
}

double StandingReach(const ContinuousSpec& spec, const Rect& region,
                     const std::vector<PublicObject>& fetched) {
  if (spec.kind == QueryKind::kPrivateRange) return spec.radius;
  const size_t k = EffectiveK(spec);
  if (fetched.size() <= k) return 0.0;
  double max_kth = 0.0;
  for (const Point& corner : region.Corners()) {
    max_kth = std::max(max_kth, KthCornerDist(corner, fetched, k));
  }
  return max_kth + HalfDiagonal(region);
}

std::vector<PublicObject> ComputeStandingAnswer(
    const ContinuousSpec& spec, const Rect& region,
    const std::vector<PublicObject>& fetched, double reach) {
  const size_t k = EffectiveK(spec);
  if (spec.kind != QueryKind::kPrivateRange && fetched.size() <= k)
    return fetched;  // Everything is a candidate.
  std::vector<PublicObject> answer;
  for (const auto& o : fetched) {
    if (MinDist(o.location, region) <= reach) answer.push_back(o);
  }
  // NN/kNN: conservative fetch, then k-dominance. Every dominator of an
  // in-reach object is itself in reach, so pruning over the reach-filtered
  // set equals pruning over the whole category.
  if (spec.kind != QueryKind::kPrivateRange)
    KDominancePrune(&answer, region, k);
  return answer;
}

ContinuousShardRegistry::ContinuousShardRegistry(
    const Rect& space, const ContinuousRegistryOptions& options,
    const ContinuousObs& obs)
    : options_(options),
      obs_(obs),
      coverage_grid_(space, options.grid_cells == 0 ? 1 : options.grid_cells),
      window_grid_(space, options.grid_cells == 0 ? 1 : options.grid_cells) {}

void ContinuousShardRegistry::MarkStaleLocked(ContinuousQueryId id) {
  if (auto it = private_.find(id); it != private_.end()) {
    ++it->second.epoch;
    if (!it->second.stale) {
      it->second.stale = true;
      stale_queue_.push_back(id);
      if (obs_.stale_marked != nullptr) obs_.stale_marked->Increment();
    }
    return;
  }
  if (auto it = counts_.find(id); it != counts_.end()) {
    ++it->second.epoch;
    if (!it->second.stale) {
      it->second.stale = true;
      stale_queue_.push_back(id);
      if (obs_.stale_marked != nullptr) obs_.stale_marked->Increment();
    }
  }
}

Status ContinuousShardRegistry::InsertPrivate(ContinuousQueryId id,
                                              const ContinuousSpec& spec,
                                              const Rect& region,
                                              StandingSnapshot snap,
                                              uint64_t expected_version) {
  std::lock_guard<std::mutex> lock(mu_);
  if (private_.count(id) != 0 || counts_.count(id) != 0)
    return Status::AlreadyExists("continuous query id already registered");
  PrivateEntry entry;
  entry.spec = spec;
  entry.region = region;
  entry.snap = std::move(snap);
  const bool needs_repair =
      entry.snap.degraded ||
      public_version_.load(std::memory_order_acquire) != expected_version;
  private_.emplace(id, std::move(entry));
  by_user_[spec.issuer].push_back(id);
  (void)coverage_grid_.Upsert(id, private_[id].snap.coverage);
  total_.fetch_add(1, std::memory_order_relaxed);
  if (obs_.registered != nullptr) obs_.registered->Add(1.0);
  if (needs_repair) MarkStaleLocked(id);
  return Status::OK();
}

Status ContinuousShardRegistry::RefreshRegion(ContinuousQueryId id,
                                              const Rect& region) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = private_.find(id);
  if (it == private_.end())
    return Status::NotFound("unknown continuous query");
  if (it->second.region == region) return Status::OK();
  // A drain slipped a newer region in before the query was registered;
  // adopt it and let the sweep rebuild the answer.
  it->second.region = region;
  MarkStaleLocked(id);
  return Status::OK();
}

Status ContinuousShardRegistry::InsertCount(
    ContinuousQueryId id, const Rect& window,
    std::unordered_map<ObjectId, double> contributions) {
  std::lock_guard<std::mutex> lock(mu_);
  if (private_.count(id) != 0 || counts_.count(id) != 0)
    return Status::AlreadyExists("continuous query id already registered");
  CountEntry entry;
  entry.window = window;
  entry.contributions = std::move(contributions);
  entry.in_grid = window_grid_.Upsert(id, window).ok();
  counts_.emplace(id, std::move(entry));
  total_.fetch_add(1, std::memory_order_relaxed);
  if (obs_.registered != nullptr) obs_.registered->Add(1.0);
  return Status::OK();
}

Status ContinuousShardRegistry::Remove(ContinuousQueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = private_.find(id); it != private_.end()) {
    auto& ids = by_user_[it->second.spec.issuer];
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) by_user_.erase(it->second.spec.issuer);
    (void)coverage_grid_.Remove(id);
    private_.erase(it);
    total_.fetch_sub(1, std::memory_order_relaxed);
    if (obs_.registered != nullptr) obs_.registered->Add(-1.0);
    return Status::OK();
  }
  if (auto it = counts_.find(id); it != counts_.end()) {
    if (it->second.in_grid) (void)window_grid_.Remove(id);
    counts_.erase(it);
    total_.fetch_sub(1, std::memory_order_relaxed);
    if (obs_.registered != nullptr) obs_.registered->Add(-1.0);
    return Status::OK();
  }
  return Status::NotFound("unknown continuous query");
}

bool ContinuousShardRegistry::TouchPrivateLocked(ContinuousQueryId id,
                                                 PrivateEntry* entry,
                                                 const Rect& new_region) {
  if (entry->region == new_region) return false;  // Reused cloak: no-op.
  entry->region = new_region;
  ++entry->epoch;
  if (entry->stale) return true;  // Already queued; sweep sees new region.
  double reach = 0.0;
  if (options_.force_full_reeval ||
      !StandingCoverageHolds(entry->spec, new_region, entry->snap, &reach)) {
    MarkStaleLocked(id);
    return true;
  }
  auto fresh = ComputeStandingAnswer(entry->spec, new_region,
                                     entry->snap.fetched, reach);
  if (obs_.incremental_refilters != nullptr)
    obs_.incremental_refilters->Increment();
  const uint64_t delta = SymmetricDelta(entry->snap.current, fresh);
  if (delta > 0) {
    if (obs_.delta_candidates != nullptr)
      obs_.delta_candidates->Increment(delta);
    ++entry->generation;
    entry->snap.current = std::move(fresh);
  }
  return true;
}

void ContinuousShardRegistry::OnLocationUpdate(
    UserId user, ObjectId pseudonym, const std::optional<Rect>& old_region,
    const Rect& new_region) {
  std::lock_guard<std::mutex> lock(mu_);
  if (obs_.updates_seen != nullptr) obs_.updates_seen->Increment();
  uint64_t affected = 0;
  size_t refiltered = 0;
  size_t staled = 0;
  if (auto it = by_user_.find(user); it != by_user_.end()) {
    for (ContinuousQueryId id : it->second) {
      auto entry = private_.find(id);
      if (entry == private_.end()) continue;
      const bool was_stale = entry->second.stale;
      if (TouchPrivateLocked(id, &entry->second, new_region)) {
        ++affected;
        if (entry->second.stale && !was_stale) ++staled;
        else if (!entry->second.stale) ++refiltered;
      }
    }
  }
  if (!counts_.empty()) {
    // Only windows the move touches can change: look up the hull of the
    // old and new region in the window grid.
    Rect hull = new_region;
    if (old_region.has_value()) {
      hull = Rect{std::min(hull.min_x, old_region->min_x),
                  std::min(hull.min_y, old_region->min_y),
                  std::max(hull.max_x, old_region->max_x),
                  std::max(hull.max_y, old_region->max_y)};
    }
    for (const auto& w : window_grid_.IntersectingRects(hull)) {
      auto entry = counts_.find(w.id);
      if (entry == counts_.end()) continue;
      auto& contrib = entry->second.contributions;
      const double p = CountContributionOf(new_region, entry->second.window);
      auto existing = contrib.find(pseudonym);
      const double old_p =
          existing != contrib.end() ? existing->second : 0.0;
      if (p == old_p) continue;
      if (p > 0.0) {
        if (existing != contrib.end()) existing->second = p;
        else contrib.emplace(pseudonym, p);
      } else if (existing != contrib.end()) {
        contrib.erase(existing);
      }
      ++entry->second.generation;
      ++entry->second.epoch;
      ++affected;
      if (obs_.count_delta_updates != nullptr)
        obs_.count_delta_updates->Increment();
    }
  }
  if (obs_.affected_per_update != nullptr)
    obs_.affected_per_update->Record(static_cast<double>(affected));
  if (affected > 0) {
    obs::TraceSpan span(obs::CurrentTraceContext(), "cq.incremental");
    if (span.active()) {
      span.AddAttr("affected", static_cast<double>(affected));
      span.AddAttr("refiltered", static_cast<double>(refiltered));
      span.AddAttr("staled", static_cast<double>(staled));
    }
  }
}

void ContinuousShardRegistry::OnLocationRemoved(ObjectId pseudonym,
                                                const Rect& old_region) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counts_.empty()) return;
  for (const auto& w : window_grid_.IntersectingRects(old_region)) {
    auto entry = counts_.find(w.id);
    if (entry == counts_.end()) continue;
    if (entry->second.contributions.erase(pseudonym) > 0) {
      ++entry->second.generation;
      ++entry->second.epoch;
      if (obs_.count_delta_updates != nullptr)
        obs_.count_delta_updates->Increment();
    }
  }
}

void ContinuousShardRegistry::OnPublicChanged(const Point& location,
                                              Category category) {
  std::lock_guard<std::mutex> lock(mu_);
  public_version_.fetch_add(1, std::memory_order_acq_rel);
  if (private_.empty()) return;
  for (const auto& c : coverage_grid_.IntersectingRects(
           Rect::FromPoint(location))) {
    auto it = private_.find(c.id);
    if (it != private_.end() && it->second.spec.category == category)
      MarkStaleLocked(c.id);
  }
}

void ContinuousShardRegistry::OnCategoryReloaded(Category category) {
  std::lock_guard<std::mutex> lock(mu_);
  public_version_.fetch_add(1, std::memory_order_acq_rel);
  for (auto& [id, entry] : private_) {
    if (entry.spec.category == category) MarkStaleLocked(id);
  }
}

Result<StandingAnswer> ContinuousShardRegistry::Answer(
    ContinuousQueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = private_.find(id);
  if (it == private_.end())
    return Status::NotFound("unknown continuous query");
  StandingAnswer answer;
  answer.kind = it->second.spec.kind;
  answer.candidates = it->second.snap.current;
  answer.generation = it->second.generation;
  answer.stale = it->second.stale;
  answer.degraded = it->second.snap.degraded;
  answer.covered_shards = it->second.snap.covered_shards;
  return answer;
}

Result<StandingCountPart> ContinuousShardRegistry::CountContributions(
    ContinuousQueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counts_.find(id);
  if (it == counts_.end())
    return Status::NotFound("unknown continuous query");
  StandingCountPart part;
  part.contributions.reserve(it->second.contributions.size());
  for (const auto& [pseudonym, p] : it->second.contributions)
    part.contributions.push_back({pseudonym, p});
  std::sort(part.contributions.begin(), part.contributions.end(),
            [](const CountContribution& a, const CountContribution& b) {
              return a.pseudonym < b.pseudonym;
            });
  part.generation = it->second.generation;
  part.stale = it->second.stale;
  return part;
}

Result<ContinuousQueryInfo> ContinuousShardRegistry::Info(
    ContinuousQueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  ContinuousQueryInfo info;
  if (auto it = private_.find(id); it != private_.end()) {
    info.spec = it->second.spec;
    info.region = it->second.region;
    info.coverage = it->second.snap.coverage;
    info.stale = it->second.stale;
    info.degraded = it->second.snap.degraded;
    info.generation = it->second.generation;
    info.answer_size = it->second.snap.current.size();
    return info;
  }
  if (auto it = counts_.find(id); it != counts_.end()) {
    info.spec.kind = QueryKind::kPublicCount;
    info.spec.window = it->second.window;
    info.stale = it->second.stale;
    info.generation = it->second.generation;
    info.answer_size = it->second.contributions.size();
    return info;
  }
  return Status::NotFound("unknown continuous query");
}

std::vector<std::pair<ContinuousQueryId, ContinuousSpec>>
ContinuousShardRegistry::RegisteredSpecs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<ContinuousQueryId, ContinuousSpec>> specs;
  specs.reserve(private_.size() + counts_.size());
  for (const auto& [id, entry] : private_) specs.emplace_back(id, entry.spec);
  for (const auto& [id, entry] : counts_) {
    ContinuousSpec spec;
    spec.kind = QueryKind::kPublicCount;
    spec.window = entry.window;
    specs.emplace_back(id, spec);
  }
  std::sort(specs.begin(), specs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return specs;
}

std::vector<StaleEntry> ContinuousShardRegistry::TakeStale(size_t max) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StaleEntry> taken;
  size_t kept = 0;
  for (size_t i = 0; i < stale_queue_.size(); ++i) {
    const ContinuousQueryId id = stale_queue_[i];
    if (taken.size() >= max) {
      stale_queue_[kept++] = id;
      continue;
    }
    if (auto it = private_.find(id); it != private_.end() &&
        it->second.stale) {
      it->second.stale = false;
      taken.push_back({id, it->second.spec, it->second.region,
                       it->second.epoch});
    } else if (auto ct = counts_.find(id); ct != counts_.end() &&
               ct->second.stale) {
      ct->second.stale = false;
      StaleEntry entry;
      entry.id = id;
      entry.spec.kind = QueryKind::kPublicCount;
      entry.spec.window = ct->second.window;
      entry.epoch = ct->second.epoch;
      taken.push_back(std::move(entry));
    }
  }
  stale_queue_.resize(kept);
  repairs_inflight_.fetch_add(taken.size(), std::memory_order_acq_rel);
  return taken;
}

void ContinuousShardRegistry::Restore(ContinuousQueryId id, uint64_t epoch,
                                      StandingSnapshot snap) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = private_.find(id);
  if (it == private_.end()) return;
  if (it->second.epoch != epoch || it->second.stale) return;  // Moved on.
  if (SymmetricDelta(it->second.snap.current, snap.current) > 0)
    ++it->second.generation;
  it->second.snap = std::move(snap);
  (void)coverage_grid_.Upsert(id, it->second.snap.coverage);
}

void ContinuousShardRegistry::RestoreCount(
    ContinuousQueryId id, uint64_t epoch,
    std::unordered_map<ObjectId, double> contributions) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counts_.find(id);
  if (it == counts_.end()) return;
  if (it->second.epoch != epoch || it->second.stale) return;
  it->second.contributions = std::move(contributions);
  ++it->second.generation;
}

void ContinuousShardRegistry::RepairFailed(ContinuousQueryId id,
                                           uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = private_.find(id);
  if (it == private_.end()) return;
  if (it->second.epoch != epoch || it->second.stale) return;
  it->second.snap.current.clear();
  it->second.snap.fetched.clear();
  it->second.snap.degraded = true;
  ++it->second.generation;
}

}  // namespace cloakdb

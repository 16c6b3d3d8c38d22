#include "index/public_index.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace cloakdb {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Window that matches every entry — used to enumerate a dynamic tree.
Rect EverythingWindow() { return Rect(-kInf, -kInf, kInf, kInf); }

void BumpCounter(obs::Counter* c, uint64_t delta = 1) {
  if (c != nullptr && delta > 0) c->Increment(delta);
}

}  // namespace

Status PublicCategoryIndex::Insert(ObjectId id, const Point& location) {
  if (sealed_.ContainsId(id) && tombstones_.count(id) == 0) {
    return Status::AlreadyExists("public object id already stored");
  }
  CLOAKDB_RETURN_IF_ERROR(overlay_.Insert(id, location));
  BumpCounter(config_.obs != nullptr ? config_.obs->overlay_inserts_total
                                     : nullptr);
  if (overlay_.size() + tombstones_.size() > config_.overlay_compact_limit) {
    return Compact();
  }
  return Status::OK();
}

Status PublicCategoryIndex::Remove(ObjectId id) {
  if (overlay_.Locate(id).ok()) return overlay_.Remove(id);
  if (sealed_.ContainsId(id) && tombstones_.count(id) == 0) {
    tombstones_.insert(id);
    BumpCounter(config_.obs != nullptr ? config_.obs->tombstones_total
                                       : nullptr);
    if (overlay_.size() + tombstones_.size() >
        config_.overlay_compact_limit) {
      return Compact();
    }
    return Status::OK();
  }
  return Status::NotFound("public object id not stored");
}

Status PublicCategoryIndex::BulkLoad(std::vector<PointEntry> entries) {
  const uint64_t n = entries.size();
  Result<StaticRTree> built = StaticRTree::Build(std::move(entries));
  if (!built.ok()) return built.status();
  sealed_ = std::move(built).value();
  overlay_ = RTree();
  tombstones_.clear();
  ++seal_generation_;
  if (config_.obs != nullptr) {
    BumpCounter(config_.obs->seals_total);
    BumpCounter(config_.obs->sealed_objects_total, n);
  }
  return Status::OK();
}

size_t PublicCategoryIndex::size() const {
  return sealed_.size() - tombstones_.size() + overlay_.size();
}

Result<Point> PublicCategoryIndex::Locate(ObjectId id) const {
  Result<Point> in_overlay = overlay_.Locate(id);
  if (in_overlay.ok()) return in_overlay;
  if (tombstones_.count(id) != 0) {
    return Status::NotFound("object " + std::to_string(id) +
                            " not in static index");
  }
  return sealed_.Locate(id);
}

std::vector<PointEntry> PublicCategoryIndex::RangeSearch(
    const Rect& window) const {
  std::vector<PointEntry> out;
  sealed_.RangeSearchInto(window, tombstones_.empty() ? nullptr : &tombstones_,
                          &out);
  std::vector<PointEntry> spill = overlay_.RangeSearch(window);
  out.insert(out.end(), spill.begin(), spill.end());
  std::sort(out.begin(), out.end(),
            [](const PointEntry& a, const PointEntry& b) {
              return a.id < b.id;
            });
  return out;
}

size_t PublicCategoryIndex::RangeCount(const Rect& window) const {
  return sealed_.RangeCount(window,
                            tombstones_.empty() ? nullptr : &tombstones_) +
         overlay_.RangeCount(window);
}

std::vector<PointEntry> PublicCategoryIndex::KNearest(const Point& from,
                                                      size_t k) const {
  std::vector<PointEntry> merged = sealed_.KNearest(
      from, k, tombstones_.empty() ? nullptr : &tombstones_);
  std::vector<PointEntry> spill = overlay_.KNearest(from, k);
  merged.insert(merged.end(), spill.begin(), spill.end());
  std::sort(merged.begin(), merged.end(),
            [&from](const PointEntry& a, const PointEntry& b) {
              return std::make_pair(Distance(from, a.location), a.id) <
                     std::make_pair(Distance(from, b.location), b.id);
            });
  if (merged.size() > k) merged.resize(k);
  return merged;
}

double PublicCategoryIndex::NearestDistance(const Point& from) const {
  return std::min(
      sealed_.NearestDistance(from,
                              tombstones_.empty() ? nullptr : &tombstones_),
      overlay_.NearestDistance(from));
}

uint32_t PublicCategoryIndex::Height() const {
  return std::max(sealed_.Height(), overlay_.Height());
}

std::vector<PointEntry> PublicCategoryIndex::LiveEntries() const {
  std::vector<PointEntry> out;
  out.reserve(size());
  sealed_.ForEachEntry([this, &out](ObjectId id, const Point& p) {
    if (tombstones_.count(id) == 0) out.push_back({id, p});
  });
  std::vector<PointEntry> spill = overlay_.RangeSearch(EverythingWindow());
  out.insert(out.end(), spill.begin(), spill.end());
  return out;
}

Status PublicCategoryIndex::AdoptSealed(StaticRTree sealed,
                                        const std::vector<PointEntry>& objects) {
  std::unordered_map<ObjectId, Point> want;
  want.reserve(objects.size() * 2);
  for (const PointEntry& e : objects) want.emplace(e.id, e.location);

  std::unordered_set<ObjectId> dead;
  bool mismatch = false;
  sealed.ForEachEntry([&](ObjectId id, const Point& p) {
    auto it = want.find(id);
    if (it == want.end()) {
      dead.insert(id);
    } else if (it->second != p) {
      mismatch = true;
    } else {
      want.erase(it);
    }
  });
  if (mismatch) {
    return Status::Internal(
        "sealed blob disagrees with snapshot on a stored location");
  }

  sealed_ = std::move(sealed);
  overlay_ = RTree();
  tombstones_ = std::move(dead);
  for (const auto& [id, p] : want) {
    CLOAKDB_RETURN_IF_ERROR(overlay_.Insert(id, p));
  }
  ++seal_generation_;
  if (config_.obs != nullptr) {
    BumpCounter(config_.obs->adoptions_total);
    BumpCounter(config_.obs->overlay_inserts_total, want.size());
    BumpCounter(config_.obs->tombstones_total, tombstones_.size());
  }
  return Status::OK();
}

Status PublicCategoryIndex::Compact() {
  const uint64_t n_live = size();
  Result<StaticRTree> built = StaticRTree::Build(LiveEntries());
  if (!built.ok()) return built.status();
  sealed_ = std::move(built).value();
  overlay_ = RTree();
  tombstones_.clear();
  ++seal_generation_;
  if (config_.obs != nullptr) {
    BumpCounter(config_.obs->compactions_total);
    BumpCounter(config_.obs->sealed_objects_total, n_live);
  }
  return Status::OK();
}

}  // namespace cloakdb

#include "server/query_processor.h"

#include <algorithm>
#include <unordered_set>

#include "geom/distance.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"

namespace cloakdb {

QueryProcessor::QueryProcessor(const Rect& space, uint32_t rect_grid_cells,
                               const PublicCategoryIndex::Config& public_index)
    : store_(space, rect_grid_cells, public_index) {}

Status QueryProcessor::ApplyCloakedUpdate(ObjectId pseudonym,
                                          const Rect& region) {
  return store_.UpsertPrivateRegion(pseudonym, region);
}

Status QueryProcessor::DropPseudonym(ObjectId pseudonym) {
  return store_.RemovePrivateRegion(pseudonym);
}

Result<PrivateRangeResult> QueryProcessor::PrivateRange(
    const Rect& cloaked, double radius, Category category,
    const PrivateRangeOptions& opts) const {
  obs::ScopedTimer probe(obs_.range_probe_us);
  obs::TraceSpan span(obs::CurrentTraceContext(), "index.probe");
  auto result = PrivateRangeQuery(store_, cloaked, radius, category, opts);
  if (result.ok())
    span.AddAttr("candidates",
                 static_cast<double>(result.value().candidates.size()));
  span.End();
  probe.Stop();
  return result;
}

Result<PrivateNnResult> QueryProcessor::PrivateNn(const Rect& cloaked,
                                                  Category category) const {
  obs::ScopedTimer probe(obs_.nn_probe_us);
  obs::TraceSpan span(obs::CurrentTraceContext(), "index.probe");
  auto result = PrivateNnQuery(store_, cloaked, category);
  if (result.ok())
    span.AddAttr("candidates",
                 static_cast<double>(result.value().candidates.size()));
  span.End();
  probe.Stop();
  return result;
}

Result<PrivateKnnResult> QueryProcessor::PrivateKnn(const Rect& cloaked,
                                                    size_t k,
                                                    Category category) const {
  obs::ScopedTimer probe(obs_.knn_probe_us);
  obs::TraceSpan span(obs::CurrentTraceContext(), "index.probe");
  auto result = PrivateKnnQuery(store_, cloaked, k, category);
  if (result.ok())
    span.AddAttr("candidates",
                 static_cast<double>(result.value().candidates.size()));
  span.End();
  probe.Stop();
  return result;
}

Result<std::vector<PublicObject>> QueryProcessor::SharedProbe(
    const Rect& probe_region, Category category) const {
  // Not a client-visible query. Probe latency is recorded by the service's
  // shared-execution histogram around this call.
  obs::TraceSpan span(obs::CurrentTraceContext(), "index.shared_probe");
  return SharedProbeQuery(store_, probe_region, category);
}

Result<double> QueryProcessor::NnFetchReach(const Rect& cloaked,
                                            Category category) const {
  return NnFetchRadius(store_, cloaked, category);
}

Result<double> QueryProcessor::KnnFetchReach(const Rect& cloaked, size_t k,
                                             Category category) const {
  return KnnFetchRadius(store_, cloaked, k, category);
}

Result<PrivateRangeResult> QueryProcessor::PrivateRangeShared(
    const std::vector<PublicObject>& superset, const Rect& cloaked,
    double radius, Category category,
    const PrivateRangeOptions& opts) const {
  return PrivateRangeFromSuperset(store_, superset, cloaked, radius,
                                  category, opts);
}

Result<PrivateNnResult> QueryProcessor::PrivateNnShared(
    const std::vector<PublicObject>& superset, const Rect& cloaked,
    Category category, double known_fetch_radius) const {
  return PrivateNnFromSuperset(store_, superset, cloaked, category,
                               known_fetch_radius);
}

Result<PrivateKnnResult> QueryProcessor::PrivateKnnShared(
    const std::vector<PublicObject>& superset, const Rect& cloaked, size_t k,
    Category category, double known_fetch_radius) const {
  return PrivateKnnFromSuperset(store_, superset, cloaked, k, category,
                                known_fetch_radius);
}

Result<PrivatePrivateRangeResult> QueryProcessor::PrivatePrivateRange(
    const Rect& querier, double radius,
    const PrivatePrivateOptions& opts) const {
  return PrivatePrivateRangeQuery(store_, querier, radius, opts);
}

Result<PrivatePrivateNnResult> QueryProcessor::PrivatePrivateNn(
    const Rect& querier, const PrivatePrivateOptions& opts) const {
  return PrivatePrivateNnQuery(store_, querier, opts);
}

Result<PublicCountResult> QueryProcessor::PublicCount(
    const Rect& window) const {
  obs::ScopedTimer probe(obs_.count_probe_us);
  obs::TraceSpan span(obs::CurrentTraceContext(), "index.probe");
  auto result = PublicRangeCountQuery(store_, window);
  span.End();
  probe.Stop();
  return result;
}

Result<PublicNnResult> QueryProcessor::PublicNn(
    const Point& from, const PublicNnOptions& opts) const {
  return PublicNnQuery(store_, from, opts);
}

Result<HeatmapResult> QueryProcessor::Heatmap(uint32_t resolution) const {
  obs::ScopedTimer probe(obs_.heatmap_probe_us);
  obs::TraceSpan span(obs::CurrentTraceContext(), "index.probe");
  auto result = PublicHeatmapQuery(store_, resolution);
  span.End();
  probe.Stop();
  return result;
}

namespace {

// Deduplicates by id and sorts — shards hold disjoint objects, so the sort
// is what makes merged lists deterministic across shard counts.
void SortUniqueById(std::vector<PublicObject>* objects) {
  std::sort(objects->begin(), objects->end(),
            [](const PublicObject& a, const PublicObject& b) {
              return a.id < b.id;
            });
  objects->erase(std::unique(objects->begin(), objects->end(),
                             [](const PublicObject& a, const PublicObject& b) {
                               return a.id == b.id;
                             }),
                 objects->end());
}

}  // namespace

PrivateRangeResult MergePrivateRangeResults(
    std::vector<PrivateRangeResult> parts) {
  PrivateRangeResult merged;
  for (auto& part : parts) {
    if (merged.candidates.empty() && merged.extended_region.IsEmpty())
      merged.extended_region = part.extended_region;
    merged.rounded_rect_pruned += part.rounded_rect_pruned;
    merged.candidates.insert(merged.candidates.end(),
                             std::make_move_iterator(part.candidates.begin()),
                             std::make_move_iterator(part.candidates.end()));
  }
  SortUniqueById(&merged.candidates);
  return merged;
}

PrivateNnResult MergePrivateNnResults(const Rect& cloaked,
                                      std::vector<PrivateNnResult> parts) {
  PrivateNnResult merged;
  for (auto& part : parts) {
    merged.fetch_radius = std::max(merged.fetch_radius, part.fetch_radius);
    merged.dominance_pruned += part.dominance_pruned;
    merged.candidates.insert(merged.candidates.end(),
                             std::make_move_iterator(part.candidates.begin()),
                             std::make_move_iterator(part.candidates.end()));
  }
  SortUniqueById(&merged.candidates);

  // Cross-shard dominance: a candidate that survived its shard can still be
  // beaten by another shard's object for every possible querier location.
  merged.dominance_pruned += DominancePrune(&merged.candidates, cloaked);
  return merged;
}

PrivateKnnResult MergePrivateKnnResults(const Rect& cloaked, size_t k,
                                        std::vector<PrivateKnnResult> parts) {
  PrivateKnnResult merged;
  for (auto& part : parts) {
    merged.fetch_radius = std::max(merged.fetch_radius, part.fetch_radius);
    merged.dominance_pruned += part.dominance_pruned;
    merged.candidates.insert(merged.candidates.end(),
                             std::make_move_iterator(part.candidates.begin()),
                             std::make_move_iterator(part.candidates.end()));
  }
  SortUniqueById(&merged.candidates);

  // Cross-shard k-dominance, same rule as PrivateKnnQuery.
  merged.dominance_pruned += KDominancePrune(&merged.candidates, cloaked, k);
  return merged;
}

Result<PublicCountResult> MergePublicCountResults(
    std::vector<PublicCountResult> parts) {
  PublicCountResult merged;
  for (auto& part : parts) {
    merged.naive_count += part.naive_count;
    merged.contributions.insert(
        merged.contributions.end(),
        std::make_move_iterator(part.contributions.begin()),
        std::make_move_iterator(part.contributions.end()));
  }
  std::sort(merged.contributions.begin(), merged.contributions.end(),
            [](const CountContribution& a, const CountContribution& b) {
              return a.pseudonym < b.pseudonym;
            });
  std::vector<double> probabilities;
  probabilities.reserve(merged.contributions.size());
  for (const auto& c : merged.contributions)
    probabilities.push_back(c.probability);
  auto answer = MakeCountAnswer(probabilities);
  if (!answer.ok()) return answer.status();
  merged.answer = std::move(answer).value();
  return merged;
}

Result<HeatmapResult> MergeHeatmapResults(std::vector<HeatmapResult> parts) {
  if (parts.empty())
    return Status::InvalidArgument("no heatmap partials to merge");
  HeatmapResult merged = std::move(parts.front());
  for (size_t i = 1; i < parts.size(); ++i) {
    const HeatmapResult& part = parts[i];
    if (part.resolution != merged.resolution ||
        part.expected.size() != merged.expected.size())
      return Status::InvalidArgument(
          "heatmap partials disagree on resolution");
    for (size_t j = 0; j < merged.expected.size(); ++j)
      merged.expected[j] += part.expected[j];
  }
  return merged;
}

}  // namespace cloakdb

// The privacy-aware query processor: the server facade of paper Fig. 1.
//
// Receives cloaked updates from the Location Anonymizer, stores public
// objects, and dispatches the two novel query classes (private-over-public,
// public-over-private). Per-query cost signals (counts, candidates, modeled
// wire bytes) are kept by the service's MetricsRegistry, not here.
//
// Thread safety: data-management entry points (ApplyCloakedUpdate,
// DropPseudonym, store() mutation) require exclusive access. All query
// methods are const and touch only immutable store state, so any number of
// threads may run queries concurrently as long as no writer is in flight —
// the read path the sharded service layer (src/service/) relies on.

#ifndef CLOAKDB_SERVER_QUERY_PROCESSOR_H_
#define CLOAKDB_SERVER_QUERY_PROCESSOR_H_

#include <vector>

#include "obs/metrics.h"
#include "server/object_store.h"
#include "server/private_private.h"
#include "server/private_queries.h"
#include "server/public_queries.h"
#include "util/status.h"

namespace cloakdb {

/// Optional per-query-kind index-probe latency sinks (microseconds). The
/// sharded service points every shard's processor at one set of shared
/// histograms from its MetricsRegistry; standalone processors leave them
/// null and pay nothing. "Probe" covers the full single-processor query —
/// index lookup plus local dominance pruning — i.e. everything below the
/// service's fan-in merge.
struct QueryProcessorObs {
  obs::ShardedHistogram* range_probe_us = nullptr;
  obs::ShardedHistogram* nn_probe_us = nullptr;
  obs::ShardedHistogram* knn_probe_us = nullptr;
  obs::ShardedHistogram* count_probe_us = nullptr;
  obs::ShardedHistogram* heatmap_probe_us = nullptr;
};

/// The location-based database server.
class QueryProcessor {
 public:
  /// `space` bounds the private-region index; `public_index` configures
  /// the per-category public-data index (index/public_index.h).
  explicit QueryProcessor(const Rect& space, uint32_t rect_grid_cells = 64,
                          const PublicCategoryIndex::Config& public_index = {});

  /// Data management (delegates to the ObjectStore).
  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }

  /// Ingests one anonymized location update: the server learns only
  /// (pseudonym, region).
  Status ApplyCloakedUpdate(ObjectId pseudonym, const Rect& region);

  /// Drops a pseudonym (user went passive / unsubscribed).
  Status DropPseudonym(ObjectId pseudonym);

  /// Private range query over public data (Fig. 5a).
  Result<PrivateRangeResult> PrivateRange(
      const Rect& cloaked, double radius, Category category,
      const PrivateRangeOptions& opts = {}) const;

  /// Private NN query over public data (Fig. 5b).
  Result<PrivateNnResult> PrivateNn(const Rect& cloaked,
                                    Category category) const;

  /// Private k-NN query over public data (k > 1 extension of Fig. 5b).
  Result<PrivateKnnResult> PrivateKnn(const Rect& cloaked, size_t k,
                                      Category category) const;

  // --- Shared execution (src/service/ probe sharing) ----------------------
  // One widened probe fetched via SharedProbe can serve a whole cluster of
  // overlapping cloaked queries; the *Shared entry points refine a member's
  // exact answer from that superset.

  /// Materializes every `category` object inside `probe_region`.
  Result<std::vector<PublicObject>> SharedProbe(const Rect& probe_region,
                                                Category category) const;

  /// Conservative NN / k-NN fetch radii (the reach a shared probe must
  /// cover); thin wrappers over server/private_queries.h.
  Result<double> NnFetchReach(const Rect& cloaked, Category category) const;
  Result<double> KnnFetchReach(const Rect& cloaked, size_t k,
                               Category category) const;

  /// PrivateRange refined from a shared probe superset.
  Result<PrivateRangeResult> PrivateRangeShared(
      const std::vector<PublicObject>& superset, const Rect& cloaked,
      double radius, Category category,
      const PrivateRangeOptions& opts = {}) const;

  /// PrivateNn refined from a shared probe superset. `known_fetch_radius`
  /// (when > 0) is a fetch radius the caller already computed via
  /// NnFetchReach, skipping a second round of corner probes.
  Result<PrivateNnResult> PrivateNnShared(
      const std::vector<PublicObject>& superset, const Rect& cloaked,
      Category category, double known_fetch_radius = 0.0) const;

  /// PrivateKnn refined from a shared probe superset; `known_fetch_radius`
  /// as in PrivateNnShared.
  Result<PrivateKnnResult> PrivateKnnShared(
      const std::vector<PublicObject>& superset, const Rect& cloaked,
      size_t k, Category category, double known_fetch_radius = 0.0) const;

  /// Private range query over private data (both sides cloaked).
  Result<PrivatePrivateRangeResult> PrivatePrivateRange(
      const Rect& querier, double radius,
      const PrivatePrivateOptions& opts = {}) const;

  /// Private NN query over private data (both sides cloaked).
  Result<PrivatePrivateNnResult> PrivatePrivateNn(
      const Rect& querier, const PrivatePrivateOptions& opts = {}) const;

  /// Public count query over private data (Fig. 6a).
  Result<PublicCountResult> PublicCount(const Rect& window) const;

  /// Public NN query over private data (Fig. 6b).
  Result<PublicNnResult> PublicNn(const Point& from,
                                  const PublicNnOptions& opts = {}) const;

  /// Expected-density heatmap over private data (Fig. 6a generalized).
  Result<HeatmapResult> Heatmap(uint32_t resolution) const;

  /// Installs probe-latency sinks (histograms are internally synchronized,
  /// so concurrent const queries may record freely). Call before queries
  /// start; the handles must outlive the processor.
  void SetObs(const QueryProcessorObs& obs) { obs_ = obs; }

 private:
  ObjectStore store_;
  QueryProcessorObs obs_;
};

// --- Fan-in merge helpers -------------------------------------------------
//
// The sharded service layer partitions public objects across shards and
// hash-routes private users, then fans one query out to several
// QueryProcessors and merges the partial results with these helpers. Merged
// candidate lists are sorted by object id (deterministic regardless of
// shard count); merged Range/Count results are *identical* to a
// single-shard oracle over the union of the data, and merged NN/kNN results
// preserve the candidate-list guarantee (the true answer for every possible
// querier location survives the merge).

/// Merges private-range partials: candidate union (sorted by id), summed
/// prune counters. `parts` must stem from the same (cloaked, radius) query
/// over disjoint object sets.
PrivateRangeResult MergePrivateRangeResults(
    std::vector<PrivateRangeResult> parts);

/// Merges private-NN partials for `cloaked`: candidate union re-pruned by
/// global dominance (keep o iff MinDist(o, R) <= min over the union of
/// MaxDist(o', R)).
PrivateNnResult MergePrivateNnResults(const Rect& cloaked,
                                      std::vector<PrivateNnResult> parts);

/// Merges private-kNN partials for `cloaked`: candidate union re-pruned by
/// global k-dominance (drop o when at least k union members are guaranteed
/// nearer for every location in R).
PrivateKnnResult MergePrivateKnnResults(const Rect& cloaked, size_t k,
                                        std::vector<PrivateKnnResult> parts);

/// Merges public-count partials: contributions concatenated (sorted by
/// pseudonym) and the three paper answer formats recomputed from the merged
/// per-object probabilities — bit-identical to the single-shard answer.
Result<PublicCountResult> MergePublicCountResults(
    std::vector<PublicCountResult> parts);

/// Merges heatmaps of identical resolution/space by summing expected mass.
Result<HeatmapResult> MergeHeatmapResults(std::vector<HeatmapResult> parts);

}  // namespace cloakdb

#endif  // CLOAKDB_SERVER_QUERY_PROCESSOR_H_

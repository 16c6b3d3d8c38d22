// Private queries over public data (paper Section 6.2.1, Fig. 5).
//
// The querying user is known to the server only as a cloaked rectangle R.
// The server returns a *candidate list* that is guaranteed to contain the
// exact answer for every possible location inside R; the mobile client then
// refines the list locally against her true location. The server-side
// guarantee / client-side refinement split is the paper's trade-off between
// transmission cost and privacy.

#ifndef CLOAKDB_SERVER_PRIVATE_QUERIES_H_
#define CLOAKDB_SERVER_PRIVATE_QUERIES_H_

#include <vector>

#include "server/object_store.h"
#include "util/status.h"

namespace cloakdb {

/// Result of a private range query (Fig. 5a): "all objects within `radius`
/// of my location".
struct PrivateRangeResult {
  /// Candidate objects: every object that can be within `radius` of *some*
  /// point of the cloaked region.
  std::vector<PublicObject> candidates;
  /// The extended search region actually used (cloaked region expanded by
  /// the radius — the MBR approximation of the paper's rounded rectangle).
  Rect extended_region;
  /// Number of objects fetched from the extended MBR but discarded by the
  /// exact rounded-rectangle test.
  size_t rounded_rect_pruned = 0;
  /// Set by the service layer when the fan-out was cut short (deadline,
  /// overload budget, or shard failure). The candidate list is then a
  /// correct superset only for objects on the shards marked in
  /// `covered_shards`; it never silently drops coverage without the flag.
  bool degraded = false;
  /// Service-layer coverage bitmap: bit i set iff shard i's contribution is
  /// fully reflected (the shard answered, or provably holds no qualifying
  /// object). All-ones (on the shards that exist) when !degraded.
  uint64_t covered_shards = 0;
};

/// Options for private range queries.
struct PrivateRangeOptions {
  /// When true (default), candidates are filtered with the exact rounded-
  /// rectangle test MinDist(object, R) <= radius; when false, the MBR
  /// approximation the paper mentions for real implementations is returned.
  bool exact_rounded_rect = true;
};

/// Executes a private range query for cloaked region `cloaked` and radius
/// `radius` over category `category`. Fails with InvalidArgument on an
/// empty region or non-positive radius and NotFound on an empty category.
Result<PrivateRangeResult> PrivateRangeQuery(
    const ObjectStore& store, const Rect& cloaked, double radius,
    Category category, const PrivateRangeOptions& options = {});

/// Result of a private nearest-neighbor query (Fig. 5b).
struct PrivateNnResult {
  /// Candidate objects: for every point p in the cloaked region, the true
  /// nearest neighbor of p is one of these.
  std::vector<PublicObject> candidates;
  /// The conservative fetch radius used before pruning.
  double fetch_radius = 0.0;
  /// Number of fetched objects eliminated by dominance pruning (an object
  /// o is dominated when some o' satisfies MaxDist(o', R) < MinDist(o, R),
  /// i.e. o' is guaranteed nearer for every possible user location — the
  /// paper's "target A is eliminated" argument).
  size_t dominance_pruned = 0;
  /// Degradation markers filled by the service layer; see
  /// PrivateRangeResult::degraded / covered_shards.
  bool degraded = false;
  uint64_t covered_shards = 0;
};

/// Executes a private NN query for cloaked region `cloaked` over category
/// `category`. Fails with InvalidArgument on an empty region and NotFound
/// on an empty category.
Result<PrivateNnResult> PrivateNnQuery(const ObjectStore& store,
                                       const Rect& cloaked,
                                       Category category);

/// Result of a private k-nearest-neighbor query (the natural k > 1
/// generalization of Fig. 5b: "find my 3 nearest gas stations").
struct PrivateKnnResult {
  /// Candidates guaranteed to contain the true k nearest neighbors of
  /// every point in the cloaked region.
  std::vector<PublicObject> candidates;
  double fetch_radius = 0.0;
  /// Objects eliminated because at least k others are guaranteed nearer
  /// for every possible user location.
  size_t dominance_pruned = 0;
  /// Degradation markers filled by the service layer; see
  /// PrivateRangeResult::degraded / covered_shards.
  bool degraded = false;
  uint64_t covered_shards = 0;
};

/// Executes a private k-NN query. Fails with InvalidArgument on an empty
/// region or k = 0, and NotFound on an empty category. When the category
/// holds fewer than k objects, all of them are returned.
Result<PrivateKnnResult> PrivateKnnQuery(const ObjectStore& store,
                                         const Rect& cloaked, size_t k,
                                         Category category);

// --- Shared execution (one probe serving many queries) --------------------
//
// The service's shared-execution engine runs ONE widened index probe for a
// cluster of overlapping cloaked queries and refines every member's
// candidate list from the shared superset with the functions below. They
// apply the same predicates as the isolated queries, and every isolated
// candidate o satisfies MinDist(o, R) <= reach — which places o inside
// R.Expanded(reach) — so whenever the probe rectangle contains
// R.Expanded(reach), refining from the superset returns exactly the
// isolated answer. Sharing can only widen what is *fetched*, never shrink
// what is *kept*: pruning stays per-query, so the paper's candidate-list
// guarantee is unaffected.

/// Fetches every `category` object inside `probe_region`, materialized once
/// for a cluster of queries. Fails with InvalidArgument on an empty probe
/// region and NotFound on an absent category.
Result<std::vector<PublicObject>> SharedProbeQuery(const ObjectStore& store,
                                                   const Rect& probe_region,
                                                   Category category);

/// The conservative NN fetch radius of `cloaked` (max corner-NN distance
/// plus half the diagonal): the reach a shared probe must cover for
/// PrivateNnFromSuperset to be exact. Fails like PrivateNnQuery.
Result<double> NnFetchRadius(const ObjectStore& store, const Rect& cloaked,
                             Category category);

/// The conservative k-NN fetch radius; returns 0.0 when the category holds
/// at most k objects (the probe is bypassed — everything is a candidate).
/// Fails like PrivateKnnQuery.
Result<double> KnnFetchRadius(const ObjectStore& store, const Rect& cloaked,
                              size_t k, Category category);

/// PrivateRangeQuery refined from a shared superset. Exact iff `superset`
/// contains every `category` object inside cloaked.Expanded(radius).
Result<PrivateRangeResult> PrivateRangeFromSuperset(
    const ObjectStore& store, const std::vector<PublicObject>& superset,
    const Rect& cloaked, double radius, Category category,
    const PrivateRangeOptions& options = {});

/// PrivateNnQuery refined from a shared superset. Exact iff `superset`
/// contains every `category` object o with MinDist(o, cloaked) <= the
/// NnFetchRadius of `cloaked`. A caller that already computed that radius
/// (e.g. to build a cache key) passes it as `known_fetch_radius` to skip
/// the corner probes; 0.0 means "compute it here".
Result<PrivateNnResult> PrivateNnFromSuperset(
    const ObjectStore& store, const std::vector<PublicObject>& superset,
    const Rect& cloaked, Category category, double known_fetch_radius = 0.0);

/// PrivateKnnQuery refined from a shared superset (same exactness contract
/// with KnnFetchRadius; the <= k pigeonhole case re-fetches the whole
/// category from the index and ignores `superset`). `known_fetch_radius`
/// as in PrivateNnFromSuperset — 0.0 recomputes, which also re-detects the
/// pigeonhole case.
Result<PrivateKnnResult> PrivateKnnFromSuperset(
    const ObjectStore& store, const std::vector<PublicObject>& superset,
    const Rect& cloaked, size_t k, Category category,
    double known_fetch_radius = 0.0);

// --- Dominance pruning ----------------------------------------------------
//
// The candidate-list rules every NN / k-NN path applies: the isolated
// queries, superset refinement, the service's cross-shard merges and the
// standing-query re-filter. Both keep the survivors' order, so an id-sorted
// list stays sorted. Instantiated for PointEntry and PublicObject.

/// NN dominance: keeps o iff MinDist(o, R) <= min_o' MaxDist(o', R), i.e.
/// no other object is guaranteed nearer for every possible user position
/// (the paper's "target A is eliminated" argument). Returns the prune count.
template <typename T>
size_t DominancePrune(std::vector<T>* hits, const Rect& cloaked);

/// k-dominance: drops o when at least k objects of `hits` are guaranteed
/// nearer for every possible location, i.e. have MaxDist(o', R) <
/// MinDist(o, R) (o never dominates itself: MaxDist >= MinDist). Sorts the
/// MaxDists once, so it costs O(n log n). Returns the prune count.
template <typename T>
size_t KDominancePrune(std::vector<T>* hits, const Rect& cloaked, size_t k);

/// Picks the true k nearest neighbors from k-NN candidates, sorted by
/// distance (ties by id). Returns fewer when the list is shorter than k.
std::vector<PublicObject> RefineKnnCandidates(
    const std::vector<PublicObject>& candidates, const Point& true_location,
    size_t k);

// --- Client-side refinement (runs on the mobile device) -------------------

/// Filters range-query candidates down to the exact answer for the client's
/// true location.
std::vector<PublicObject> RefineRangeCandidates(
    const std::vector<PublicObject>& candidates, const Point& true_location,
    double radius);

/// Picks the true nearest neighbor from NN candidates (ties broken by id);
/// fails with NotFound on an empty candidate list.
Result<PublicObject> RefineNnCandidates(
    const std::vector<PublicObject>& candidates, const Point& true_location);

}  // namespace cloakdb

#endif  // CLOAKDB_SERVER_PRIVATE_QUERIES_H_

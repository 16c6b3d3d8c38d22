// Full system harness: population + movement + anonymizer + server +
// clients, with ground-truth validation.
//
// This is the executable form of paper Fig. 1. Because the harness also
// owns the simulator, it knows every user's true location and can verify
// end-to-end that privacy never costs correctness: a private NN query
// answered through cloaking + candidate refinement must return exactly the
// object a non-private query would have.

#ifndef CLOAKDB_SYSTEM_SYSTEM_H_
#define CLOAKDB_SYSTEM_SYSTEM_H_

#include <memory>
#include <vector>

#include "core/anonymizer.h"
#include "server/query_processor.h"
#include "sim/movement.h"
#include "sim/poi.h"
#include "sim/population.h"
#include "sim/workload.h"
#include "system/messages.h"
#include "system/mobile_client.h"
#include "util/stats.h"
#include "util/status.h"

namespace cloakdb {

/// End-to-end configuration.
struct LbsSystemOptions {
  Rect space{0.0, 0.0, 100.0, 100.0};
  size_t num_users = 1000;
  PopulationModel population_model = PopulationModel::kGaussianClusters;
  /// Privacy profile applied to every generated user.
  PrivacyRequirement requirement{10, 0.0,
                                 std::numeric_limits<double>::infinity()};
  AnonymizerOptions anonymizer;  ///< `space` is overwritten from above.
  /// POIs per generated category.
  size_t pois_per_category = 200;
  std::vector<Category> categories = {poi_category::kGasStation,
                                      poi_category::kRestaurant};
  RandomWaypointModel::Options movement;
  uint64_t seed = 0xC10ACULL;

  /// When true, Tick() streams all users through the anonymizer's batch
  /// API (enabling shared execution, Section 5.3) instead of one
  /// ReportLocation per client.
  bool batch_updates = false;
};

/// Aggregated end-to-end health metrics.
struct EndToEndMetrics {
  uint64_t nn_queries = 0;
  uint64_t nn_exact_matches = 0;  ///< Refined answer == ground-truth NN.
  uint64_t range_queries = 0;
  uint64_t range_exact_matches = 0;
  RunningStats nn_candidates;
  RunningStats range_candidates;

  double NnAccuracy() const {
    return nn_queries == 0
               ? 1.0
               : static_cast<double>(nn_exact_matches) / nn_queries;
  }
  double RangeAccuracy() const {
    return range_queries == 0
               ? 1.0
               : static_cast<double>(range_exact_matches) / range_queries;
  }
};

/// The assembled system.
class LbsSystem {
 public:
  /// Builds the whole stack: generates users and POIs, registers clients,
  /// streams the initial location reports.
  static Result<std::unique_ptr<LbsSystem>> Create(
      const LbsSystemOptions& options);

  /// Advances the movement model by `dt` and streams every user's new
  /// location through the privacy pipeline at time `now`.
  Status Tick(double dt, TimeOfDay now);

  /// Runs one private NN query end to end for `user` and validates the
  /// refined answer against ground truth, updating the metrics.
  Status RunPrivateNn(UserId user, Category category, TimeOfDay now);

  /// Runs one private range query end to end with validation.
  Status RunPrivateRange(UserId user, double radius, Category category,
                         TimeOfDay now);

  /// Runs one private k-NN query end to end with validation (counted
  /// under the NN metrics).
  Status RunPrivateKnn(UserId user, size_t k, Category category,
                       TimeOfDay now);

  /// Runs a generated workload spec (public queries go straight to the
  /// server on the third-party channel).
  Status RunQuery(const QuerySpec& spec, TimeOfDay now);

  /// Ground truth: the true location the simulator holds for a user.
  Result<Point> TrueLocation(UserId user) const;

  Anonymizer& anonymizer() { return *anonymizer_; }
  QueryProcessor& server() { return *server_; }
  const MessageCounters& counters() const { return counters_; }
  const EndToEndMetrics& metrics() const { return metrics_; }
  const std::vector<UserId>& user_ids() const { return user_ids_; }
  const LbsSystemOptions& options() const { return options_; }

 private:
  explicit LbsSystem(const LbsSystemOptions& options);

  LbsSystemOptions options_;
  std::unique_ptr<Anonymizer> anonymizer_;
  std::unique_ptr<QueryProcessor> server_;
  std::unique_ptr<RandomWaypointModel> movement_;
  std::vector<MobileClient> clients_;
  std::unordered_map<UserId, size_t> client_index_;
  std::vector<UserId> user_ids_;
  MessageCounters counters_;
  EndToEndMetrics metrics_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_SYSTEM_SYSTEM_H_

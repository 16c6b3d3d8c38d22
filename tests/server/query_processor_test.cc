#include "server/query_processor.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/random.h"

namespace cloakdb {
namespace {

// Adds `pois` random category-1 objects to `server`.
void Populate(QueryProcessor* server, size_t pois, uint64_t seed = 41) {
  Rng rng(seed);
  for (ObjectId id = 1; id <= pois; ++id) {
    PublicObject o;
    o.id = id;
    o.location = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
    o.category = 1;
    EXPECT_TRUE(server->store().AddPublicObject(o).ok());
  }
}

TEST(QueryProcessorTest, CloakedUpdateLifecycle) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  Populate(&server, 10);
  ASSERT_TRUE(server.ApplyCloakedUpdate(1001, Rect(10, 10, 20, 20)).ok());
  EXPECT_EQ(server.store().num_private(), 1u);
  // Update replaces (a moving user).
  ASSERT_TRUE(server.ApplyCloakedUpdate(1001, Rect(30, 30, 40, 40)).ok());
  EXPECT_EQ(server.store().num_private(), 1u);
  ASSERT_TRUE(server.DropPseudonym(1001).ok());
  EXPECT_EQ(server.store().num_private(), 0u);
  EXPECT_EQ(server.DropPseudonym(1001).code(), StatusCode::kNotFound);
}

TEST(QueryProcessorTest, PublicQueriesRouted) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  Populate(&server, 10);
  ASSERT_TRUE(server.ApplyCloakedUpdate(1001, Rect(10, 10, 20, 20)).ok());
  auto count = server.PublicCount(Rect(0, 0, 50, 50));
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(count.value().answer.expected, 1.0);
  auto nn = server.PublicNn({0, 0});
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn.value().most_likely, 1001u);
}

TEST(QueryProcessorTest, KnnAndPrivatePrivateRouted) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  Populate(&server, 200);
  ASSERT_TRUE(server.ApplyCloakedUpdate(1001, Rect(10, 10, 20, 20)).ok());
  ASSERT_TRUE(server.ApplyCloakedUpdate(1002, Rect(30, 30, 40, 40)).ok());

  auto knn = server.PrivateKnn(Rect(40, 40, 50, 50), 3, 1);
  ASSERT_TRUE(knn.ok());
  EXPECT_GE(knn.value().candidates.size(), 3u);

  PrivatePrivateOptions options;
  options.exclude = 1001;
  auto pp_range =
      server.PrivatePrivateRange(Rect(10, 10, 20, 20), 50.0, options);
  ASSERT_TRUE(pp_range.ok());
  EXPECT_EQ(pp_range.value().matches.size(), 1u);
  auto pp_nn = server.PrivatePrivateNn(Rect(10, 10, 20, 20), options);
  ASSERT_TRUE(pp_nn.ok());
  EXPECT_EQ(pp_nn.value().most_likely, 1002u);
}

TEST(QueryProcessorTest, HeatmapFacade) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  Populate(&server, 10);
  ASSERT_TRUE(server.ApplyCloakedUpdate(1, Rect(0, 0, 50, 50)).ok());
  auto map = server.Heatmap(4);
  ASSERT_TRUE(map.ok());
  EXPECT_NEAR(map.value().TotalMass(), 1.0, 1e-9);
  EXPECT_FALSE(server.Heatmap(0).ok());
}

}  // namespace
}  // namespace cloakdb

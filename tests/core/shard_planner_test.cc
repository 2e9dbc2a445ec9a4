#include "core/shard_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/sweep_cost.h"

namespace robustmap {
namespace {

ParameterSpace Grid(int x_min_log2, int y_min_log2) {
  return ParameterSpace::TwoD(Axis::Selectivity("a", x_min_log2, 0),
                              Axis::Selectivity("b", y_min_log2, 0));
}

/// The production partition: cost-balanced under the analytic prior.
Result<std::vector<TileSpec>> AnalyticPartition(const ParameterSpace& space,
                                                size_t max_tiles) {
  return ShardPlanner::Partition(
      space, max_tiles, CellCostModel::Analytic(space).ValueOrDie());
}

/// Every grid point must be covered by exactly one tile.
void ExpectExactCover(const ParameterSpace& space,
                      const std::vector<TileSpec>& tiles) {
  std::vector<int> covered(space.num_points(), 0);
  for (const TileSpec& t : tiles) {
    ASSERT_LE(t.x_end, space.x_size());
    ASSERT_LE(t.y_end, space.y_size());
    ASSERT_LT(t.x_begin, t.x_end);
    ASSERT_LT(t.y_begin, t.y_end);
    for (size_t yi = t.y_begin; yi < t.y_end; ++yi) {
      for (size_t xi = t.x_begin; xi < t.x_end; ++xi) {
        ++covered[space.IndexOf(xi, yi)];
      }
    }
  }
  for (size_t pt = 0; pt < covered.size(); ++pt) {
    EXPECT_EQ(covered[pt], 1) << "point " << pt;
  }
}

TEST(ShardPlannerTest, CoversGridExactlyAtManyTileCounts) {
  ParameterSpace space = Grid(-8, -6);  // 9 x 7
  for (const CellCostModel& model :
       {CellCostModel::Uniform(space).ValueOrDie(),
        CellCostModel::Analytic(space).ValueOrDie()}) {
    for (size_t tiles : {1u, 2u, 3u, 7u, 8u, 13u, 63u, 1000u}) {
      auto plan = ShardPlanner::Partition(space, tiles, model).ValueOrDie();
      SCOPED_TRACE(tiles);
      EXPECT_LE(plan.size(), tiles);
      EXPECT_FALSE(plan.empty());
      ExpectExactCover(space, plan);
    }
  }
}

TEST(ShardPlannerTest, OneDSpaceSplitsAlongX) {
  ParameterSpace line = ParameterSpace::OneD(Axis::Selectivity("a", -10, 0));
  auto plan = AnalyticPartition(line, 4).ValueOrDie();
  EXPECT_EQ(plan.size(), 4u);
  ExpectExactCover(line, plan);
  for (const TileSpec& t : plan) {
    EXPECT_EQ(t.y_begin, 0u);
    EXPECT_EQ(t.y_end, 1u);
  }
}

TEST(ShardPlannerTest, MoreTilesThanPointsIsCappedByTheGrid) {
  ParameterSpace space = Grid(-2, -2);  // 3 x 3 = 9 points
  auto plan = AnalyticPartition(space, 1000).ValueOrDie();
  EXPECT_EQ(plan.size(), 9u);  // one tile per point, never an empty tile
  ExpectExactCover(space, plan);
}

TEST(ShardPlannerTest, StableIdsAcrossInvocations) {
  ParameterSpace space = Grid(-8, -8);
  // 8 tiles over 9 rows: one tile per band, so snake emission is the
  // row-major id order.
  auto a = AnalyticPartition(space, 8).ValueOrDie();
  auto b = AnalyticPartition(space, 8).ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
    EXPECT_EQ(a[i].shard_id, i);  // ids are dense and ordered
  }
}

TEST(ShardPlannerTest, ZeroTilesIsAnError) {
  auto plan = AnalyticPartition(Grid(-4, -4), 0);
  EXPECT_FALSE(plan.ok());
  EXPECT_TRUE(plan.status().IsInvalidArgument());
}

TEST(ShardPlannerTest, EmptyGridIsAnError) {
  // A default-constructed space is the 0-point grid; the OneD/TwoD
  // factories assert non-empty axes in Debug builds, so the Status-based
  // rejection must be reachable without them. A model cannot be built
  // over the empty grid, so one over a real grid stands in.
  ParameterSpace empty;
  auto model = CellCostModel::Analytic(Grid(-4, -4)).ValueOrDie();
  auto plan = ShardPlanner::Partition(empty, 4, model);
  EXPECT_FALSE(plan.ok());
  EXPECT_TRUE(plan.status().IsInvalidArgument());
}

TEST(ShardPlannerWeightedTest, CoversGridExactlyAndKeepsDenseIds) {
  ParameterSpace space = Grid(-8, -6);  // 9 x 7
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  for (size_t tiles : {1u, 2u, 3u, 7u, 13u, 63u, 1000u}) {
    SCOPED_TRACE(tiles);
    auto plan = ShardPlanner::Partition(space, tiles, model).ValueOrDie();
    EXPECT_LE(plan.size(), tiles);
    EXPECT_FALSE(plan.empty());
    ExpectExactCover(space, plan);
    // Ids stay dense row-major even though emission order snakes.
    std::vector<size_t> ids;
    for (const TileSpec& t : plan) ids.push_back(t.shard_id);
    std::sort(ids.begin(), ids.end());
    for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
  }
}

TEST(ShardPlannerWeightedTest, BalancesCostBetterThanUniform) {
  // A strongly skewed grid: the analytic model concentrates cost near
  // sel=1, so the flat model's equal-area row bands leave one tile holding
  // most of the work.
  ParameterSpace space = Grid(-12, -12);  // 13 x 13
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  auto flat = CellCostModel::Uniform(space).ValueOrDie();
  auto uniform = ShardPlanner::Partition(space, 4, flat).ValueOrDie();
  auto weighted = ShardPlanner::Partition(space, 4, model).ValueOrDie();
  auto max_cost = [&](const std::vector<TileSpec>& tiles) {
    double m = 0;
    for (const TileSpec& t : tiles) m = std::max(m, model.TileCost(t));
    return m;
  };
  EXPECT_LT(max_cost(weighted), max_cost(uniform));
  // The expensive band (toward high y) must be finer than the cheap one:
  // the last band is thinner than the first.
  auto y_span = [](const TileSpec& t) { return t.y_end - t.y_begin; };
  const TileSpec* first_band = nullptr;
  const TileSpec* last_band = nullptr;
  for (const TileSpec& t : weighted) {
    if (t.y_begin == 0) first_band = &t;
    if (t.y_end == space.y_size()) last_band = &t;
  }
  ASSERT_NE(first_band, nullptr);
  ASSERT_NE(last_band, nullptr);
  EXPECT_LT(y_span(*last_band), y_span(*first_band));
}

TEST(ShardPlannerWeightedTest, SnakeOrderKeepsBandsAdjacent) {
  ParameterSpace space = Grid(-7, -7);  // 8 x 8
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  // 16 tiles over 8 rows: a 2-wide tile grid, so snake order alternates
  // x-direction per band.
  auto plan = ShardPlanner::Partition(space, 16, model).ValueOrDie();
  ASSERT_EQ(plan.size(), 16u);
  for (size_t i = 0; i + 1 < plan.size(); ++i) {
    const TileSpec& a = plan[i];
    const TileSpec& b = plan[i + 1];
    // Consecutive emissions share a band or touch across the band seam.
    const bool same_band = a.y_begin == b.y_begin;
    const bool adjacent_band = a.y_end == b.y_begin;
    EXPECT_TRUE(same_band || adjacent_band) << "emission " << i;
    if (adjacent_band) {
      // The snake turns in place: the x range repeats at the seam.
      EXPECT_EQ(a.x_begin == b.x_begin || a.x_end == b.x_end, true);
    }
  }
}

TEST(ShardPlannerWeightedTest, StableAcrossInvocationsAndValidatesModel) {
  ParameterSpace space = Grid(-8, -8);
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  auto a = ShardPlanner::Partition(space, 8, model).ValueOrDie();
  auto b = ShardPlanner::Partition(space, 8, model).ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);

  ParameterSpace other = Grid(-4, -4);
  auto mismatch =
      ShardPlanner::Partition(other, 4, model);  // model built over `space`
  EXPECT_FALSE(mismatch.ok());
  EXPECT_TRUE(mismatch.status().IsInvalidArgument());
}

TEST(SliceSpaceTest, SliceCarriesAxisNamesAndValues) {
  ParameterSpace space = Grid(-8, -6);
  TileSpec t;
  t.x_begin = 2;
  t.x_end = 5;
  t.y_begin = 1;
  t.y_end = 3;
  ParameterSpace sub = SliceSpace(space, t).ValueOrDie();
  EXPECT_TRUE(sub.is_2d());
  EXPECT_EQ(sub.x().name, "a");
  EXPECT_EQ(sub.y().name, "b");
  ASSERT_EQ(sub.x_size(), 3u);
  ASSERT_EQ(sub.y_size(), 2u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sub.x().values[i], space.x().values[2 + i]);
  }
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(sub.y().values[i], space.y().values[1 + i]);
  }
}

TEST(SliceSpaceTest, OneDSliceStaysOneD) {
  ParameterSpace line = ParameterSpace::OneD(Axis::Selectivity("a", -4, 0));
  TileSpec t;
  t.x_begin = 1;
  t.x_end = 3;
  t.y_begin = 0;
  t.y_end = 1;
  ParameterSpace sub = SliceSpace(line, t).ValueOrDie();
  EXPECT_FALSE(sub.is_2d());
  EXPECT_EQ(sub.num_points(), 2u);
}

TEST(SliceSpaceTest, RejectsEmptyAndOutOfRangeRectangles) {
  ParameterSpace space = Grid(-4, -4);
  TileSpec empty;  // x_begin == x_end == 0
  EXPECT_FALSE(SliceSpace(space, empty).ok());
  TileSpec outside;
  outside.x_begin = 0;
  outside.x_end = space.x_size() + 1;
  outside.y_begin = 0;
  outside.y_end = 1;
  EXPECT_FALSE(SliceSpace(space, outside).ok());
}

}  // namespace
}  // namespace robustmap

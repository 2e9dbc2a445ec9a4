#include "core/sweep_cost.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace robustmap {
namespace {

ParameterSpace Grid(int x_min_log2, int y_min_log2) {
  return ParameterSpace::TwoD(Axis::Selectivity("a", x_min_log2, 0),
                              Axis::Selectivity("b", y_min_log2, 0));
}

TEST(CellCostModelTest, UniformWeighsEveryCellEqually) {
  ParameterSpace space = Grid(-4, -4);
  auto model = CellCostModel::Uniform(space).ValueOrDie();
  for (size_t yi = 0; yi < space.y_size(); ++yi) {
    for (size_t xi = 0; xi < space.x_size(); ++xi) {
      EXPECT_DOUBLE_EQ(model.CellCost(xi, yi), 1.0);
    }
  }
  EXPECT_DOUBLE_EQ(model.TotalCost(),
                   static_cast<double>(space.num_points()));
}

TEST(CellCostModelTest, AnalyticGrowsWithSelectivity) {
  ParameterSpace space = Grid(-6, -6);
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  // Strictly increasing along each axis, positive everywhere, and the
  // expensive corner dominates the cheap one by far more than the grid is
  // wide — the skew the weighted planner exists to absorb.
  for (size_t yi = 0; yi < space.y_size(); ++yi) {
    for (size_t xi = 0; xi < space.x_size(); ++xi) {
      EXPECT_GT(model.CellCost(xi, yi), 0.0);
      if (xi > 0) {
        EXPECT_GT(model.CellCost(xi, yi), model.CellCost(xi - 1, yi));
      }
      if (yi > 0) {
        EXPECT_GT(model.CellCost(xi, yi), model.CellCost(xi, yi - 1));
      }
    }
  }
  EXPECT_GT(model.CellCost(6, 6), 8 * model.CellCost(0, 0));
}

TEST(CellCostModelTest, AnalyticOneDIsXOnly) {
  ParameterSpace line = ParameterSpace::OneD(Axis::Selectivity("a", -5, 0));
  auto model = CellCostModel::Analytic(line).ValueOrDie();
  for (size_t xi = 1; xi < line.x_size(); ++xi) {
    EXPECT_GT(model.CellCost(xi, 0), model.CellCost(xi - 1, 0));
  }
}

TEST(CellCostModelTest, TileCostIsAdditiveOverAPartition) {
  ParameterSpace space = Grid(-5, -4);
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  auto tiles = ShardPlanner::Partition(space, 7, model).ValueOrDie();
  double sum = 0;
  for (const TileSpec& t : tiles) sum += model.TileCost(t);
  EXPECT_NEAR(sum, model.TotalCost(), 1e-9 * model.TotalCost());
}

TEST(CellCostModelTest, RejectsEmptyGrid) {
  // A default-constructed space is the 0-point grid; the OneD/TwoD
  // factories assert non-empty axes in Debug builds, so the Status-based
  // rejection must be reachable without them.
  ParameterSpace empty;
  EXPECT_TRUE(
      CellCostModel::Uniform(empty).status().IsInvalidArgument());
  EXPECT_TRUE(
      CellCostModel::Analytic(empty).status().IsInvalidArgument());
}

TEST(CellCostModelTest, DiscountedCellsWeighLessThanEveryUnflaggedCell) {
  ParameterSpace space = Grid(-4, -3);  // 5 x 4
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  // Flag every third cell, including the most expensive corner.
  std::vector<uint8_t> cached(space.num_points(), 0);
  for (size_t pt = 0; pt < cached.size(); pt += 3) cached[pt] = 1;
  cached.back() = 1;
  auto discounted = model.WithDiscountedCells(cached);
  double lightest_unflagged = model.TotalCost();
  double heaviest_flagged = 0;
  for (size_t pt = 0; pt < cached.size(); ++pt) {
    const auto [xi, yi] = space.CoordsOf(pt);
    const double w = discounted.CellCost(xi, yi);
    EXPECT_GT(w, 0.0) << "point " << pt;
    if (cached[pt]) {
      heaviest_flagged = std::max(heaviest_flagged, w);
    } else {
      EXPECT_DOUBLE_EQ(w, model.CellCost(xi, yi)) << "point " << pt;
      lightest_unflagged = std::min(lightest_unflagged, w);
    }
  }
  EXPECT_LT(heaviest_flagged, lightest_unflagged);
}

TEST(SortTilesHeaviestFirstTest, OrdersByDescendingCost) {
  ParameterSpace space = Grid(-6, -6);
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  // Equal-area tiles, so their analytic costs differ widely.
  auto tiles = ShardPlanner::Partition(
                   space, 7, CellCostModel::Uniform(space).ValueOrDie())
                   .ValueOrDie();
  SortTilesHeaviestFirst(&tiles, model);
  for (size_t i = 1; i < tiles.size(); ++i) {
    EXPECT_GE(model.TileCost(tiles[i - 1]), model.TileCost(tiles[i]));
  }
}

}  // namespace
}  // namespace robustmap

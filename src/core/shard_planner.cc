#include "core/shard_planner.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "core/sweep_cost.h"

namespace robustmap {

namespace {

/// Cuts [0, costs.size()) into `count` contiguous bands whose cumulative
/// costs are as equal as a prefix walk can make them: boundary b lands at
/// the first index whose prefix reaches b/count of the total, clamped so
/// every band keeps at least one element. Returns the count+1 boundary
/// indices.
std::vector<size_t> CostCuts(const std::vector<double>& costs, size_t count) {
  const size_t size = costs.size();
  double total = 0;
  for (double c : costs) total += c;
  std::vector<size_t> cuts(count + 1, 0);
  cuts[count] = size;
  double prefix = 0;
  size_t index = 0;
  for (size_t b = 1; b < count; ++b) {
    const double target = total * static_cast<double>(b) /
                          static_cast<double>(count);
    // Stop where the boundary is nearest the target: take one more element
    // only while more than half of it still fits under the target.
    while (index < size && prefix + costs[index] / 2 < target) {
      prefix += costs[index];
      ++index;
    }
    // Each band keeps ≥1 element, and every later band must also get one;
    // keep `prefix` equal to sum(costs[0..index)) while clamping.
    while (index < cuts[b - 1] + 1) {
      prefix += costs[index];
      ++index;
    }
    while (index > size - (count - b)) {
      --index;
      prefix -= costs[index];
    }
    cuts[b] = index;
  }
  return cuts;
}

}  // namespace

Result<std::vector<TileSpec>> ShardPlanner::Partition(
    const ParameterSpace& space, size_t max_tiles,
    const CellCostModel& model) {
  if (max_tiles == 0) {
    return Status::InvalidArgument("cannot partition a sweep into 0 tiles");
  }
  if (space.num_points() == 0) {
    return Status::InvalidArgument(
        "cannot partition an empty grid (an axis has no values)");
  }
  if (!(model.space() == space)) {
    return Status::InvalidArgument(
        "cost model was built over a different grid than the one being "
        "partitioned");
  }
  const size_t x_size = space.x_size();
  const size_t y_size = space.y_size();
  // Rows first: a row band keeps cells that are adjacent in the row-major
  // linearization together. Both counts are capped by the axis length, so
  // every tile is non-empty, and gx*gy <= max_tiles because
  // gx <= max_tiles / gy.
  const size_t gy = std::min(max_tiles, y_size);
  const size_t gx = std::min(std::max<size_t>(1, max_tiles / gy), x_size);

  std::vector<double> row_costs(y_size, 0.0);
  for (size_t yi = 0; yi < y_size; ++yi) {
    for (size_t xi = 0; xi < x_size; ++xi) {
      row_costs[yi] += model.CellCost(xi, yi);
    }
  }
  const std::vector<size_t> y_cuts = CostCuts(row_costs, gy);

  std::vector<TileSpec> tiles;
  tiles.reserve(gx * gy);
  for (size_t by = 0; by < gy; ++by) {
    const size_t y0 = y_cuts[by];
    const size_t y1 = y_cuts[by + 1];
    // x cuts balance the cost *within this band*: a band hugging sel=1 is
    // cut much finer toward its expensive end than a cheap band is.
    std::vector<double> col_costs(x_size, 0.0);
    for (size_t xi = 0; xi < x_size; ++xi) {
      for (size_t yi = y0; yi < y1; ++yi) {
        col_costs[xi] += model.CellCost(xi, yi);
      }
    }
    const std::vector<size_t> x_cuts = CostCuts(col_costs, gx);
    // Snake emission: odd bands run right-to-left, so consecutive tiles in
    // the returned order are spatially adjacent. Ids stay row-major.
    for (size_t i = 0; i < gx; ++i) {
      const size_t bx = (by % 2 == 0) ? i : gx - 1 - i;
      TileSpec t;
      t.shard_id = by * gx + bx;
      t.x_begin = x_cuts[bx];
      t.x_end = x_cuts[bx + 1];
      t.y_begin = y0;
      t.y_end = y1;
      tiles.push_back(t);
    }
  }
  return tiles;
}

Result<ParameterSpace> SliceSpace(const ParameterSpace& parent,
                                  const TileSpec& tile) {
  if (tile.x_begin >= tile.x_end || tile.y_begin >= tile.y_end ||
      tile.x_end > parent.x_size() || tile.y_end > parent.y_size()) {
    return Status::InvalidArgument(
        "tile rectangle [" + std::to_string(tile.x_begin) + "," +
        std::to_string(tile.x_end) + ")x[" + std::to_string(tile.y_begin) +
        "," + std::to_string(tile.y_end) + ") is empty or outside the " +
        std::to_string(parent.x_size()) + "x" +
        std::to_string(parent.y_size()) + " grid");
  }
  Axis x;
  x.name = parent.x().name;
  x.values.assign(parent.x().values.begin() + tile.x_begin,
                  parent.x().values.begin() + tile.x_end);
  if (!parent.is_2d()) {
    return ParameterSpace::OneD(std::move(x));
  }
  Axis y;
  y.name = parent.y().name;
  y.values.assign(parent.y().values.begin() + tile.y_begin,
                  parent.y().values.begin() + tile.y_end);
  return ParameterSpace::TwoD(std::move(x), std::move(y));
}

std::string RectSpecString(const TileSpec& tile) {
  return std::to_string(tile.x_begin) + ":" + std::to_string(tile.x_end) +
         ":" + std::to_string(tile.y_begin) + ":" +
         std::to_string(tile.y_end);
}

bool ParseRectSpec(const std::string& raw, TileSpec* tile) {
  size_t* fields[4] = {&tile->x_begin, &tile->x_end, &tile->y_begin,
                       &tile->y_end};
  size_t pos = 0;
  for (int f = 0; f < 4; ++f) {
    const size_t colon = raw.find(':', pos);
    const std::string part = raw.substr(
        pos, colon == std::string::npos ? std::string::npos : colon - pos);
    char* end = nullptr;
    const unsigned long long v = std::strtoull(part.c_str(), &end, 10);
    if (part.empty() || end == part.c_str() || *end != '\0') return false;
    *fields[f] = static_cast<size_t>(v);
    if (f < 3) {
      if (colon == std::string::npos) return false;
      pos = colon + 1;
    } else if (colon != std::string::npos) {
      return false;  // trailing fifth field
    }
  }
  return true;
}

}  // namespace robustmap

#ifndef ROBUSTMAP_CORE_SHARD_PLANNER_H_
#define ROBUSTMAP_CORE_SHARD_PLANNER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/parameter_space.h"

namespace robustmap {

class CellCostModel;

/// One rectangular tile of a sweep grid: the half-open cell ranges
/// [x_begin, x_end) × [y_begin, y_end) in *grid indices* of the parent
/// space. A tile covers every plan over its rectangle — sharding splits the
/// grid, never the plan list, so each tile file is a complete miniature map
/// and merging is a pure copy.
struct TileSpec {
  size_t shard_id = 0;  ///< stable for a given (space, max_tiles, model)
  size_t x_begin = 0;
  size_t x_end = 0;
  size_t y_begin = 0;
  size_t y_end = 0;  ///< {0, 1} for 1-D spaces

  size_t x_size() const { return x_end - x_begin; }
  size_t y_size() const { return y_end - y_begin; }
  size_t num_points() const { return x_size() * y_size(); }

  bool operator==(const TileSpec&) const = default;
};

/// Partitions sweep grids into rectangular tiles for sharded execution.
class ShardPlanner {
 public:
  /// Splits `space` into at most `max_tiles` rectangular tiles that cover
  /// every grid point exactly once, balanced by cost under `model`. The
  /// tile grid is gy row bands × gx column cuts: y is split first (rows
  /// are the outer dimension of the row-major linearization), then x if
  /// more tiles are wanted than there are rows; a 1-D space splits along
  /// x. Fewer than `max_tiles` tiles come back when the grid is too small
  /// or the counts do not divide evenly. Band boundaries are placed by
  /// cumulative cost — row bands each carry ~1/gy of the total cost, and
  /// each band's x cuts carry ~1/gx of that band's — so where cost is
  /// skewed the expensive corner gets geometrically finer tiles. Shard ids
  /// are dense and row-major over the tile grid, so the same (space,
  /// max_tiles, model) request always yields the same tiles with the same
  /// ids — the property checkpoint/resume relies on. Tiles are *emitted*
  /// in snake order (alternate bands reversed), so consecutive work units
  /// stay spatially adjacent. Rejects empty grids (either axis with no
  /// values), zero tiles, and a `model` not built over exactly `space`.
  static Result<std::vector<TileSpec>> Partition(const ParameterSpace& space,
                                                 size_t max_tiles,
                                                 const CellCostModel& model);
};

/// The sub-space a tile sweeps: the parent's axes restricted to the tile's
/// index ranges (axis names preserved, 1-D stays 1-D). Rejects rectangles
/// that are empty or fall outside the parent grid.
Result<ParameterSpace> SliceSpace(const ParameterSpace& parent,
                                  const TileSpec& tile);

/// The "X0:X1:Y0:Y1" rectangle spelling of the `--rect=` worker flag
/// (half-open grid-index ranges). One formatter and one parser, shared by
/// the coordinator that emits the flag and the worker that consumes it, so
/// the two can never drift on the grammar.
std::string RectSpecString(const TileSpec& tile);

/// Parses a rect spec into the four rectangle fields of `*tile` (the
/// shard id is untouched). Returns false — leaving `*tile` unspecified —
/// for anything that is not exactly four ':'-separated non-negative
/// integers. Range validation against a concrete grid is `SliceSpace`'s
/// job, not the parser's.
bool ParseRectSpec(const std::string& raw, TileSpec* tile);

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_SHARD_PLANNER_H_

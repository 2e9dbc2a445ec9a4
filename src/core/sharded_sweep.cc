#include "core/sharded_sweep.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/trace.h"
#include "core/sweep_telemetry.h"

namespace robustmap {

std::string TileFileName(size_t shard_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "tile_%04zu.rmt", shard_id);
  return buf;
}

std::string TileErrFileName(const std::string& tile_path) {
  return tile_path + ".err";
}

void WriteTileErrFile(const std::string& tile_path, const Status& s) {
  std::ofstream f(TileErrFileName(tile_path), std::ios::trunc);
  f << s.ToString();
}

Status EnsureDirectory(const std::string& path) {
  // Create each prefix in turn, tolerating the ones that already exist.
  for (size_t pos = 0; pos != std::string::npos;) {
    pos = path.find('/', pos + 1);
    std::string prefix = path.substr(0, pos);
    if (prefix.empty()) continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal("cannot create directory " + prefix + ": " +
                              ErrnoString(errno));
    }
  }
  return Status::OK();
}

Status ComputeAndWriteTile(RunContext* ctx, const Executor& executor,
                           const std::vector<PlanKind>& plans,
                           const ParameterSpace& space, const TileSpec& tile,
                           const std::string& path, StudyKind study,
                           const WarmupPolicy& warm_policy,
                           CellResultCache* cell_cache) {
  auto sub = SliceSpace(space, tile);
  RM_RETURN_IF_ERROR(sub.status());
  SweepRequest req;
  req.plans = plans;
  req.space = std::move(sub).value();
  req.study = study;
  req.backend = BackendKind::kSerial;
  req.warm_policy = warm_policy;
  req.cell_cache = cell_cache;
  const int64_t start_ns = MonotonicNowNs();
  Result<SweepOutcome> outcome = [&] {
    TraceSpan span("tile.compute");
    return SweepEngine::Run(ctx, executor, req);
  }();
  RM_RETURN_IF_ERROR(outcome.status());
  const double wall_seconds =
      static_cast<double>(MonotonicNowNs() - start_ns) * 1e-9;
  SweepTelemetry::Get().RecordLatency("tile.compute_seconds", wall_seconds);
  std::vector<RobustnessMap>& layers = outcome.value().layers;
  MapTile out{tile, space, std::move(layers.front()), wall_seconds};
  out.layer_names = StudyLayerNames(study);
  out.extra_layers.assign(std::make_move_iterator(layers.begin() + 1),
                          std::make_move_iterator(layers.end()));
  const int64_t write_ns = MonotonicNowNs();
  Status written = [&] {
    TraceSpan span("tile.serialize");
    return WriteMapTileFile(path, out);
  }();
  SweepTelemetry::Get().RecordLatency(
      "tile.serialize_seconds",
      static_cast<double>(MonotonicNowNs() - write_ns) * 1e-9);
  return written;
}

}  // namespace robustmap

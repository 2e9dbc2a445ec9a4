// One worker of a sharded sweep: rebuilds the study environment from its
// flags, computes exactly one grid tile of the requested study, and writes
// it as a checkpointed binary tile file (single-layer for the plain study,
// one named layer per study output otherwise; the stamped wall time is
// informational, shown by `map_cat --info`). Normally spawned by
// `sweep_shard` (which appends --tile/--rect/--study/--out to its own grid
// flags), but equally runnable by hand or from a cluster scheduler — a
// tile file is self-describing, so tiles computed anywhere merge as long
// as the grid flags match.
//
// Usage:
//   sweep_worker --tile=K --rect=X0:X1:Y0:Y1 --out=PATH [--stride=K]
//                [--study=plain|warmcold] [--warmup=SPEC]
//                [--row-bits=16] [--min-log2=-8] [--steps-per-octave=1]
//                [--plans=all|smoke] [--cache-dir=DIR]
//                [--trace=FILE] [--trace-epoch=NS] [--telemetry=FILE]
//
// --trace / --telemetry write this worker's spans and counters as sidecar
// files the coordinator merges at reap time; --trace-epoch aligns the
// worker's span timestamps to the coordinator's time axis (a raw
// CLOCK_MONOTONIC reading, valid across processes on one boot). These are
// explicit flags only — a worker never reads REPRO_TRACE, or every worker
// inherited from one environment would clobber the same file.
//
// --rect is the tile rectangle, taken verbatim (the coordinator's
// cost-weighted cuts depend on its model, so the exact boundaries are the
// contract); --tile is the tile's shard id. --warmup (see
// WarmupPolicy::FromSpec for the grammar) is the warm layer's policy for
// --study=warmcold and the measurement policy for a plain study; it must
// be order-independent — prior-run warmth cannot cross the tile
// boundaries sharding erases.
//
// --stride=K subsamples the grid to its stride-K lattice *before* tile
// resolution — the coarse levels of a progressive sweep, whose --rect
// cuts are indices into the subsampled space. --cache-dir points at a
// cell-result cache directory (see core/cell_cache.h); the worker
// consults it read-only — already-measured cells are copied into the
// tile instead of re-measured — and never flushes, so N concurrent
// workers share one cache file without racing on it (the coordinator
// publishes the merged results back).
//
// On failure, writes the error to PATH.err (the coordinator reads it back)
// and exits non-zero.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/trace.h"
#include "core/cell_cache.h"
#include "core/parameter_space.h"
#include "core/sharded_sweep.h"
#include "core/sweep_telemetry.h"
#include "shard_cli.h"

using namespace robustmap;
using namespace robustmap::bench;

namespace {

int Fail(const std::string& out, const Status& s) {
  std::fprintf(stderr, "sweep_worker: %s\n", s.ToString().c_str());
  if (!out.empty()) WriteTileErrFile(out, s);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  ShardGrid grid;
  int tile_id = -1;
  int stride = 1;
  std::string out;
  std::string rect;
  std::string cache_dir;
  std::string study_name = "plain";
  std::string warmup_spec = "cold";
  std::string trace_path;
  std::string trace_epoch;
  std::string telemetry_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParseGridFlag(arg, &grid) || ParseIntFlag(arg, "tile", &tile_id) ||
        ParseIntFlag(arg, "stride", &stride) ||
        ParseFlag(arg, "out", &out) || ParseFlag(arg, "rect", &rect) ||
        ParseFlag(arg, "cache-dir", &cache_dir) ||
        ParseFlag(arg, "study", &study_name) ||
        ParseFlag(arg, "warmup", &warmup_spec) ||
        ParseFlag(arg, "trace", &trace_path) ||
        ParseFlag(arg, "trace-epoch", &trace_epoch) ||
        ParseFlag(arg, "telemetry", &telemetry_path)) {
      continue;
    }
    std::fprintf(stderr, "sweep_worker: unknown flag %s\n", arg.c_str());
    return 2;
  }
  if (tile_id < 0 || out.empty()) {
    std::fprintf(stderr,
                 "usage: sweep_worker --tile=K --rect=X0:X1:Y0:Y1 "
                 "--out=PATH [--stride=K] "
                 "[--study=plain|warmcold] [--warmup=SPEC] "
                 "[--row-bits=..] [--min-log2=..] "
                 "[--steps-per-octave=..] [--plans=all|smoke] "
                 "[--cache-dir=DIR]\n");
    return 2;
  }
  // Every remaining rejection leaves a PATH.err for the coordinator: a
  // worker that dies without saying why turns a config typo into a
  // "killed?" mystery at the other end of the process boundary.
  auto study = StudyKindFromString(study_name);
  if (!study.ok()) return Fail(out, study.status());
  auto warmup = WarmupPolicy::FromSpec(warmup_spec);
  if (!warmup.ok()) return Fail(out, warmup.status());
  if (warmup.value().is_order_dependent()) {
    return Fail(out, Status::InvalidArgument(
                         "--warmup=" + warmup_spec +
                         " is order-dependent; a tile worker cannot "
                         "inherit cache state across tile boundaries"));
  }
  std::vector<PlanKind> plans = GridPlans(grid);
  if (plans.empty()) {
    return Fail(out,
                Status::InvalidArgument("unknown plan set " + grid.plan_set));
  }
  if (!trace_path.empty()) {
    if (!trace_epoch.empty()) {
      char* end = nullptr;
      const long long epoch = std::strtoll(trace_epoch.c_str(), &end, 10);
      if (end == trace_epoch.c_str() || *end != '\0') {
        return Fail(out, Status::InvalidArgument(
                             "--trace-epoch=" + trace_epoch +
                             " is not an integer nanosecond reading"));
      }
      Tracer::Get().SetEpochNs(epoch);
    }
    Tracer::Get().Enable();
  }
  if (!telemetry_path.empty()) SweepTelemetry::Get().Enable();

  if (stride < 1) {
    return Fail(out, Status::InvalidArgument(
                         "--stride=" + std::to_string(stride) +
                         " must be a positive lattice stride"));
  }
  ParameterSpace space = MakeGridSpace(grid);
  // Progressive coarse levels: the coordinator partitioned the stride-K
  // lattice, so its --rect indices only make sense against the same
  // subsampled space.
  if (stride > 1) space = SubsampleSpace(space, static_cast<size_t>(stride));
  TileSpec spec;
  spec.shard_id = static_cast<size_t>(tile_id);
  if (rect.empty()) {
    return Fail(out, Status::InvalidArgument(
                         "--rect=X0:X1:Y0:Y1 is required: the coordinator's "
                         "cuts are the tile, a worker never re-derives them"));
  }
  // SliceSpace validation below rejects a rectangle that doesn't fit this
  // grid.
  if (!ParseRectSpec(rect, &spec)) {
    return Fail(out, Status::InvalidArgument(
                         "--rect=" + rect +
                         " is not X0:X1:Y0:Y1 grid indices"));
  }
  if (auto sub = SliceSpace(space, spec); !sub.ok()) {
    return Fail(out, sub.status());
  }

  auto env = [&] {
    TraceSpan span("worker.build_env", "worker");
    return MakeGridEnvironment(grid);
  }();
  // A plain study measures under the context's policy; a warm-cold study
  // keeps the context cold (its cold layer) and warms only the warm layer.
  if (study.value() == StudyKind::kPlainMap) {
    env->ctx()->warmup = warmup.value();
  }
  // Read-only cache consultation: hits skip the measurement, misses stay
  // in this process's memory. Only the coordinator flushes — one writer,
  // however many workers race through the same directory.
  CellResultCache cache;
  if (!cache_dir.empty()) cache.Open(cache_dir);
  Status s = ComputeAndWriteTile(env->ctx(), env->executor(), plans, space,
                                 spec, out, study.value(), warmup.value(),
                                 cache_dir.empty() ? nullptr : &cache);
  if (!s.ok()) return Fail(out, s);
  // Sidecars are best-effort: a failed observability write degrades the
  // trace, never the tile the coordinator is waiting on.
  if (!trace_path.empty()) {
    if (Status ts = Tracer::Get().WriteFile(trace_path); !ts.ok()) {
      std::fprintf(stderr, "sweep_worker: %s\n", ts.ToString().c_str());
    }
  }
  if (!telemetry_path.empty()) {
    if (Status ms = SweepTelemetry::Get().WriteFile(telemetry_path);
        !ms.ok()) {
      std::fprintf(stderr, "sweep_worker: %s\n", ms.ToString().c_str());
    }
  }
  std::printf(
      "sweep_worker: tile %d (%zux%zu cells x %zu plans, %s) -> %s\n",
      tile_id, spec.x_size(), spec.y_size(), plans.size(),
      StudyKindName(study.value()), out.c_str());
  return 0;
}

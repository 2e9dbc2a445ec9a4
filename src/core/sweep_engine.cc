#include "core/sweep_engine.h"

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/mutex.h"
#include "common/trace.h"
#include "core/cell_cache.h"
#include "core/map_io.h"
#include "core/sharded_sweep.h"
#include "core/sweep_cost.h"
#include "core/sweep_telemetry.h"
#include "engine/query.h"

namespace robustmap {

namespace {

/// Every sweep entry point rejects degenerate inputs up front: a sweep
/// over nothing is almost always a caller bug (an empty plan list, an axis
/// that lost its values), and the alternative — silently returning a
/// 0-cell map that every downstream analysis then has to defend against —
/// just moves the failure somewhere less diagnosable.
Status ValidateSweepInputs(const ParameterSpace& space,
                           const std::vector<std::string>& plan_labels) {
  if (plan_labels.empty()) {
    return Status::InvalidArgument("cannot sweep an empty plan list");
  }
  if (space.num_points() == 0) {
    return Status::InvalidArgument(
        "cannot sweep an empty grid (an axis has no values)");
  }
  return Status::OK();
}

/// True when any observability sink would accept data — the one check the
/// cell loops make before touching the wall clock, so an uninstrumented
/// sweep never reads it.
bool Observing() {
  return SweepTelemetry::Get().enabled() || Tracer::Get().enabled();
}

/// Sidecar-only per-cell accounting shared by every in-process cell loop:
/// the cell latency histogram plus the simulated-I/O counters of the
/// measurement. Reads the Measurement, never writes it — no map byte may
/// depend on anything recorded here.
void ObserveCell(const Measurement& m, double cell_seconds) {
  SweepTelemetry& t = SweepTelemetry::Get();
  if (!t.enabled()) return;
  t.RecordLatency("sweep.cell_seconds", cell_seconds);
  t.AddCounter("sweep.cells_measured", 1);
  t.AddCounter("io.sequential_reads", m.io.sequential_reads);
  t.AddCounter("io.skip_reads", m.io.skip_reads);
  t.AddCounter("io.random_reads", m.io.random_reads);
  t.AddCounter("io.writes", m.io.writes);
  t.AddCounter("io.buffer_hits", m.io.buffer_hits);
  t.AddCounter("io.bytes_read", m.io.bytes_read);
  t.AddCounter("io.bytes_written", m.io.bytes_written);
}

/// Set by a cache-consulting runner when the cell it just returned came
/// from the cell-result cache rather than a measurement; consumed (and
/// reset) by the cell loop that invoked it. A reused cell must leave every
/// measurement-side observability untouched — `sweep.cells_measured`, the
/// cell-latency histogram, the io.* counters, the pool-view tallies — or a
/// warm rerun could not prove "zero cells measured" from telemetry.
/// thread_local because parallel workers run interleaved.
thread_local bool tl_cell_from_cache = false;

/// Per-view buffer-pool tallies for one sweep worker. `ColdStart` zeroes
/// the pool statistics before each measurement, so reading them right
/// after a cell yields that cell's counts; the worker accumulates across
/// its cells and publishes once at exit under its view's name.
class PoolViewObserver {
 public:
  PoolViewObserver(const BufferPool* pool, unsigned view_index)
      : pool_(pool), view_index_(view_index) {}

  ~PoolViewObserver() {
    SweepTelemetry& t = SweepTelemetry::Get();
    if (!t.enabled() || pool_ == nullptr) return;
    char view[32];
    std::snprintf(view, sizeof(view), "pool.view_%03u", view_index_);
    t.AddCounter(std::string(view) + ".hits", hits_);
    t.AddCounter(std::string(view) + ".misses", misses_);
  }

  void CellDone() {
    if (pool_ == nullptr) return;
    hits_ += pool_->hits();
    misses_ += pool_->misses();
  }

 private:
  const BufferPool* pool_;
  const unsigned view_index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// The verbose-mode progress printer: one stderr line per completed plan
/// and per 10% step — readable for both quick smokes and hour-long studies.
SweepProgressFn MakeDefaultPrinter() {
  auto last_decile = std::make_shared<int>(-1);
  auto last_plans = std::make_shared<size_t>(0);
  return [last_decile, last_plans](const SweepProgress& p) {
    const int decile = static_cast<int>(p.percent() / 10.0);
    const bool plan_step = p.plans_done != *last_plans;
    if (decile == *last_decile && !plan_step && p.cells_done != p.cells_total) {
      return;
    }
    *last_decile = decile;
    *last_plans = p.plans_done;
    std::fprintf(stderr, "  sweep: %5.1f%% (%zu/%zu cells, %zu/%zu plans)\n",
                 p.percent(), p.cells_done, p.cells_total, p.plans_done,
                 p.num_plans);
  };
}

/// Serializes progress callbacks and maintains the cumulative counts for
/// both the serial and the parallel cell loop. All updates happen under one
/// mutex, so the callback observes cells_done = 1, 2, ..., total in order.
class ProgressTracker {
 public:
  ProgressTracker(const SweepOptions& opts, size_t num_plans, size_t points)
      : points_(points), per_plan_done_(num_plans, 0) {
    progress_.num_plans = num_plans;
    progress_.cells_total = num_plans * points;
    if (opts.progress) {
      fn_ = opts.progress;
    } else if (opts.verbose) {
      fn_ = MakeDefaultPrinter();
    }
  }

  void CellDone(size_t plan) {
    if (!fn_) return;
    MutexLock lock(&mu_);
    ++progress_.cells_done;
    if (++per_plan_done_[plan] == points_) ++progress_.plans_done;
    fn_(progress_);
  }

 private:
  // points_ and fn_ are immutable after construction, so workers may read
  // them without the capability; the cumulative counts are the shared
  // mutable state and live under mu_.
  const size_t points_;
  SweepProgressFn fn_;
  Mutex mu_;
  SweepProgress progress_ GUARDED_BY(mu_);
  std::vector<size_t> per_plan_done_ GUARDED_BY(mu_);
};

/// The one per-cell body every cell loop runs — the serial loop, the
/// round-robin schedule and each parallel worker: measure the cell, observe
/// it unless it came from the cell-result cache, store it by (plan, point),
/// report progress. The wall clock is read only when some sink is
/// observing, and observing reads the Measurement, never writes it. Map
/// writes are keyed by cell and the tracker serializes itself, so parallel
/// workers share one loop.
struct CellLoop {
  RobustnessMap map;
  ProgressTracker tracker;
  const bool observing = Observing();

  /// Measures (plan, point) through `runner` on `ctx`; `pool_view` tallies
  /// that machine's pool for measured cells. A failed cell stores and
  /// reports nothing.
  Status Cell(const IndexedContextPointRunner& runner, RunContext* ctx,
              PoolViewObserver* pool_view, size_t plan, size_t point) {
    const int64_t start_ns = observing ? MonotonicNowNs() : 0;
    auto m = runner(ctx, plan, point);
    RM_RETURN_IF_ERROR(m.status());
    if (!std::exchange(tl_cell_from_cache, false) && observing) {
      ObserveCell(m.value(),
                  static_cast<double>(MonotonicNowNs() - start_ns) * 1e-9);
      pool_view->CellDone();
    }
    map.Set(plan, point, std::move(m).value());
    tracker.CellDone(plan);
    return Status::OK();
  }
};

/// Every cell in the caller's thread on one machine (`ctx`; null for a
/// runner that brings its own): plan-major — the reference order — or,
/// for the deterministic shared schedule, point-major round-robin across
/// plans, as if one query stream per plan took turns on the machine.
/// Stops at the first failing cell.
Result<RobustnessMap> RunSerialCells(
    const ParameterSpace& space, const std::vector<std::string>& plan_labels,
    const SweepOptions& opts, RunContext* ctx, bool point_major,
    const IndexedContextPointRunner& runner) {
  RM_RETURN_IF_ERROR(ValidateSweepInputs(space, plan_labels));
  TraceSpan span(point_major ? "sweep.round_robin" : "sweep.run_cells");
  const size_t plans = plan_labels.size();
  const size_t points = space.num_points();
  CellLoop loop{RobustnessMap(space, plan_labels),
                ProgressTracker(opts, plans, points)};
  // The observer publishes from the machine's pool at scope exit, before
  // the caller parks the machine back in its arena.
  PoolViewObserver pool_view(ctx == nullptr ? nullptr : ctx->pool, 0);
  for (size_t i = 0; i < plans * points; ++i) {
    const size_t plan = point_major ? i % plans : i / points;
    const size_t point = point_major ? i / plans : i % points;
    RM_RETURN_IF_ERROR(loop.Cell(runner, ctx, &pool_view, plan, point));
  }
  return std::move(loop.map);
}

/// The one order-dependence test: a sweep whose cell values depend on
/// execution history — prior-run warmth, a shared pool, or the
/// deterministic shared schedule. Such cells are not a pure function of
/// the cell, so they are never cached, sharded, refined progressively, or
/// run in parallel where reproducibility matters.
bool OrderDependent(const WarmupPolicy& warmup, const SweepOptions& opts) {
  return warmup.is_order_dependent() || opts.shared_pool != nullptr ||
         opts.deterministic_shared_schedule;
}

/// The request-level form: the context's policy, and the warm layer's for
/// a warm-cold study.
bool OrderDependent(const RunContext& ctx, const SweepRequest& req) {
  return OrderDependent(ctx.warmup, req.sweep) ||
         (req.study == StudyKind::kWarmColdDelta &&
          req.warm_policy.is_order_dependent());
}

/// The paper's standard study sweep under one in-process backend choice:
/// axes are predicate selectivities, plans are `PlanKind`s executed under
/// `ctx`'s warmup policy. The serial path measures on `ctx` itself; a
/// shared pool needs the factory to attach worker views, and the
/// round-robin schedule reorders cells, so both always take the parallel
/// path (which degrades to in-caller-thread execution at one worker).
///
/// Everything a cell does not depend on is paid once per sweep, not once
/// per cell: plans are validated and their labels materialized through
/// `Executor::Prepare`, and every grid point's query — selectivity math,
/// predicate binding — is bound up front, so the inner loop is a table
/// lookup plus the measurement itself. A caller running several sweeps
/// against the same prototype (the warm-cold study) may pass
/// `shared_factory` so the parallel loop recycles its simulated machines
/// across sweeps; the factory must have been built from `ctx` and is only
/// used when the sweep does not need a differently-configured (shared-pool)
/// one.
///
/// With a `cache`, each cell consults it first — a hit returns the stored
/// measurement without touching the executor, a miss measures and
/// publishes back — keyed under `study_name` and the sweep's own
/// `ctx->warmup`. Order-dependent configurations bypass the cache: their
/// cell values depend on execution history, which a content fingerprint
/// cannot capture.
Result<RobustnessMap> StudySweep(RunContext* ctx, const Executor& executor,
                                 const std::vector<PlanKind>& plans,
                                 const ParameterSpace& space,
                                 const SweepOptions& opts,
                                 const char* study_name,
                                 CellResultCache* cache,
                                 RunContextFactory* shared_factory = nullptr) {
  std::vector<Executor::PreparedPlan> prepared;
  std::vector<std::string> labels;
  prepared.reserve(plans.size());
  labels.reserve(plans.size());
  for (PlanKind k : plans) {
    auto p = executor.Prepare(k);
    RM_RETURN_IF_ERROR(p.status());
    labels.push_back(p.value().label());
    prepared.push_back(std::move(p).value());
  }
  const int64_t domain = executor.db().domain;
  const size_t points = space.num_points();
  std::vector<QuerySpec> queries;
  queries.reserve(points);
  for (size_t pt = 0; pt < points; ++pt) {
    queries.push_back(
        MakeStudyQuery(space.x_value(pt), space.y_value(pt), domain));
  }
  if (OrderDependent(ctx->warmup, opts)) cache = nullptr;
  std::vector<uint64_t> fps;  // [plan * points + point]
  if (cache != nullptr) {
    const uint64_t env = EnvironmentFingerprint(*ctx, domain);
    const std::string warmup_spec = ctx->warmup.ToSpec();
    fps.reserve(plans.size() * points);
    for (const std::string& label : labels) {
      for (size_t pt = 0; pt < points; ++pt) {
        fps.push_back(CellFingerprint(env, study_name, warmup_spec, label,
                                      space.x_value(pt), space.y_value(pt)));
      }
    }
  }
  // The one cell runner of both branches. A cache hit marks the cell
  // reused (the loops keep it out of every measurement-side sink) and
  // counts under the cache.* namespace; a miss measures and publishes back.
  const IndexedContextPointRunner measure =
      [&](RunContext* run_ctx, size_t plan,
          size_t point) -> Result<Measurement> {
    if (cache != nullptr) {
      Measurement hit;
      if (cache->Lookup(fps[plan * points + point], &hit)) {
        SweepTelemetry::Get().AddCounter("cache.hits", 1);
        SweepTelemetry::Get().AddCounter("sweep.cells_reused", 1);
        tl_cell_from_cache = true;
        return hit;
      }
      SweepTelemetry::Get().AddCounter("cache.misses", 1);
    }
    auto m = executor.Run(run_ctx, prepared[plan], queries[point]);
    if (m.ok() && cache != nullptr &&
        cache->Publish(fps[plan * points + point], study_name, m.value())) {
      SweepTelemetry::Get().AddCounter("cache.publishes", 1);
    }
    return m;
  };
  if (ResolveParallelism(opts.num_threads) <= 1 &&
      opts.shared_pool == nullptr && !opts.deterministic_shared_schedule) {
    return RunSerialCells(space, labels, opts, ctx, /*point_major=*/false,
                          measure);
  }
  RunContextFactory local_factory(*ctx);
  RunContextFactory* factory =
      (shared_factory != nullptr && opts.shared_pool == nullptr)
          ? shared_factory
          : &local_factory;
  if (opts.shared_pool != nullptr) {
    local_factory.ShareBufferPool(opts.shared_pool);
  }
  // The prototype's warmup may have changed since the factory was built
  // (the warm-cold study flips it between halves); machines must start
  // under the policy of *this* sweep.
  factory->set_warmup(ctx->warmup);
  return SweepEngine::RunCellsParallelIndexed(space, labels, *factory,
                                              measure, opts);
}

/// The warm-cold study: the same plans measured twice — once cold, once
/// under `warm_policy` — plus their per-cell delta. The cold sweep always
/// uses private per-worker pools (cold cells must be independent); the
/// warm sweep honors `opts.shared_pool`. The warm half is forced serial
/// when cache state is execution-order-dependent — a `kPriorRun` policy,
/// or any policy over a shared pool (each cell's ColdStart mutates the one
/// shared cache) — so the warm map is reproducible run-to-run for every
/// policy. `ctx->warmup` is restored on return.
Result<std::vector<RobustnessMap>> WarmColdLayers(
    RunContext* ctx, const Executor& executor,
    const std::vector<PlanKind>& plans, const ParameterSpace& space,
    const WarmupPolicy& warm_policy, const SweepOptions& opts,
    CellResultCache* cache) {
  const WarmupPolicy saved = ctx->warmup;

  // One machine factory for both halves: the warm half's parallel workers
  // recycle the cold half's simulated machines from the factory arena
  // instead of rebuilding them (recycled machines measure bit-identically
  // to fresh ones — see OwnedRunContext::Recycle). A shared-pool warm half
  // builds its own differently-wired factory inside StudySweep and simply
  // ignores this one.
  RunContextFactory factory(*ctx);

  // Cold half: warmup off, private per-worker pools — the classic map,
  // bit-identical at any thread count.
  ctx->warmup = WarmupPolicy::Cold();
  SweepOptions cold_opts = opts;
  cold_opts.shared_pool = nullptr;
  // Both halves fingerprint under the study's name; the halves stay
  // distinct because each sweeps under its own warmup spec (and when the
  // warm policy *is* cold, the halves are genuinely the same cells — the
  // warm half then rides entirely on the cold half's published entries).
  auto cold = StudySweep(ctx, executor, plans, space, cold_opts,
                         StudyKindName(StudyKind::kWarmColdDelta), cache,
                         &factory);
  if (!cold.ok()) {
    ctx->warmup = saved;
    return cold.status();
  }

  // Warm half under the requested policy. Two situations make warmth a
  // product of execution order, and both run serially so that order — and
  // with it the warm map — is the same on every invocation: prior-run
  // cells inherit their predecessor's cache, and a shared pool is mutated
  // by every cell's ColdStart (parallel workers would clear and re-warm
  // the one cache out from under each other's in-flight measurements).
  // Page-set policies on private per-worker pools are order-independent
  // and stay parallel.
  ctx->warmup = warm_policy;
  SweepOptions warm_opts = opts;
  if (OrderDependent(warm_policy, warm_opts)) warm_opts.num_threads = 1;
  if (warm_policy.is_order_dependent()) {
    // Prior-run cells inherit pool state, so pin the sweep's starting
    // state: the first cell runs cold, every later cell inherits from its
    // predecessor — the same history on every invocation.
    ctx->pool->Clear();
    if (warm_opts.shared_pool != nullptr) warm_opts.shared_pool->Clear();
  }
  auto warm = StudySweep(ctx, executor, plans, space, warm_opts,
                         StudyKindName(StudyKind::kWarmColdDelta), cache,
                         &factory);
  ctx->warmup = saved;
  if (!warm.ok()) return warm.status();

  auto delta = DiffMaps(warm.value(), cold.value());
  RM_RETURN_IF_ERROR(delta.status());
  std::vector<RobustnessMap> layers;
  layers.reserve(3);
  layers.push_back(std::move(cold).value());
  layers.push_back(std::move(warm).value());
  layers.push_back(std::move(delta).value());
  return layers;
}

Result<std::string> ReadErrFile(const std::string& tile_path) {
  std::ifstream f(TileErrFileName(tile_path));
  if (!f.is_open()) return Status::NotFound("no error file");
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// A checkpoint is reusable only if it parses, its checksum holds, and it
/// describes exactly the tile the current plan expects — same rectangle,
/// same parent grid, same plans, same study layers. Anything else (a tile
/// from an older configuration, a plain tile in a warm-cold directory, a
/// damaged file) must be recomputed.
Result<MapTile> LoadValidTile(const std::string& path,
                              const TileSpec& expected,
                              const ParameterSpace& space,
                              const std::vector<std::string>& labels,
                              StudyKind study) {
  auto tile = ReadMapTileFile(path);
  RM_RETURN_IF_ERROR(tile.status());
  const MapTile& t = tile.value();
  if (!(t.spec == expected) || !(t.parent_space == space) ||
      t.map.plan_labels() != labels) {
    return Status::InvalidArgument(
        path + " describes a different tile, grid, or plan set");
  }
  if (t.num_layers() != StudyLayerCount(study) ||
      t.layer_names != StudyLayerNames(study)) {
    return Status::InvalidArgument(
        path + " carries a different study's layers");
  }
  return tile;
}

/// The `.rmt` files in `dir`, sorted by name. readdir order is
/// filesystem-dependent; every decision made from a directory scan
/// (synthetic shard ids, coverage adoption below) must come from the
/// sorted list so a given directory state always produces the same plan.
std::vector<std::string> SortedTileFiles(const std::string& dir_path) {
  std::vector<std::string> names;
  if (DIR* dir = ::opendir(dir_path.c_str()); dir != nullptr) {
    while (const dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name.size() > 4 && name.rfind(".rmt") == name.size() - 4) {
        names.push_back(name);
      }
    }
    ::closedir(dir);
    std::sort(names.begin(), names.end());
  }
  return names;
}

/// True when `inner`'s (non-empty) rectangle lies entirely inside
/// `outer`'s. Shard ids play no part: a cell's value is a deterministic
/// function of (space, plans, study), so *any* valid tile covering the
/// right cells carries the right bytes whatever id computed it.
bool RectContains(const TileSpec& outer, const TileSpec& inner) {
  return inner.num_points() > 0 && inner.x_begin >= outer.x_begin &&
         inner.x_end <= outer.x_end && inner.y_begin >= outer.y_begin &&
         inner.y_end <= outer.y_end;
}

/// Appends `outer` minus `inner` (which must nest inside `outer`) as up to
/// four disjoint rectangles — the guillotine cut: full-height left and
/// right strips, then the bottom and top slabs of the middle column. The
/// pieces' shard ids are left for the caller to assign.
void SubtractRect(const TileSpec& outer, const TileSpec& inner,
                  std::vector<TileSpec>* out) {
  auto push = [out](size_t x0, size_t x1, size_t y0, size_t y1) {
    if (x0 >= x1 || y0 >= y1) return;
    TileSpec piece;
    piece.x_begin = x0;
    piece.x_end = x1;
    piece.y_begin = y0;
    piece.y_end = y1;
    out->push_back(piece);
  };
  push(outer.x_begin, inner.x_begin, outer.y_begin, outer.y_end);
  push(inner.x_end, outer.x_end, outer.y_begin, outer.y_end);
  push(inner.x_begin, inner.x_end, outer.y_begin, inner.y_begin);
  push(inner.x_begin, inner.x_end, inner.y_end, outer.y_end);
}

/// Cuts `t` in two at its cost midpoint along the longer axis: the cut
/// lands at the first slice boundary where the accumulated cost reaches
/// half the tile's, clamped so both halves are non-empty. `t` must span
/// more than one point. Purely a function of (tile, model) — the
/// determinism of straggler splitting rests on this.
std::pair<TileSpec, TileSpec> SplitTileAtCostMidpoint(
    const TileSpec& t, const CellCostModel& model) {
  const bool cut_x = t.x_size() >= t.y_size() ? t.x_size() > 1 : false;
  const size_t begin = cut_x ? t.x_begin : t.y_begin;
  const size_t end = cut_x ? t.x_end : t.y_end;
  const double total = model.TileCost(t);
  size_t cut = end - 1;
  double acc = 0;
  for (size_t i = begin; i < end; ++i) {
    TileSpec slice = t;
    if (cut_x) {
      slice.x_begin = i;
      slice.x_end = i + 1;
    } else {
      slice.y_begin = i;
      slice.y_end = i + 1;
    }
    acc += model.TileCost(slice);
    if (acc * 2 >= total) {
      cut = i + 1;
      break;
    }
  }
  cut = std::max(begin + 1, std::min(cut, end - 1));
  TileSpec a = t;
  TileSpec b = t;
  if (cut_x) {
    a.x_end = cut;
    b.x_begin = cut;
  } else {
    a.y_end = cut;
    b.y_begin = cut;
  }
  return {a, b};
}

/// The sharded coordinator's planning-time view of the cell cache: the
/// fingerprint of every (stored layer, plan, point) of the study. Stored
/// layers are what tiles persist directly from measurements — the plain
/// map's one sweep, or the warm-cold study's cold and warm halves; the
/// delta layer is derived at merge time and never cached.
class ShardCacheView {
 public:
  ShardCacheView(CellResultCache* cache, const RunContext& ctx,
                 int64_t domain, const SweepRequest& req,
                 const std::vector<std::string>& labels)
      : cache_(cache), space_(req.space), num_plans_(labels.size()) {
    const uint64_t env = EnvironmentFingerprint(ctx, domain);
    const char* study = StudyKindName(req.study);
    specs_ = req.study == StudyKind::kWarmColdDelta
                 ? std::vector<std::string>{WarmupPolicy::Cold().ToSpec(),
                                            req.warm_policy.ToSpec()}
                 : std::vector<std::string>{ctx.warmup.ToSpec()};
    fps_.reserve(specs_.size() * num_plans_ * space_.num_points());
    for (const std::string& spec : specs_) {
      for (const std::string& label : labels) {
        for (size_t pt = 0; pt < space_.num_points(); ++pt) {
          fps_.push_back(CellFingerprint(env, study, spec, label,
                                         space_.x_value(pt),
                                         space_.y_value(pt)));
        }
      }
    }
  }

  size_t num_layers() const { return specs_.size(); }
  CellResultCache* cache() const { return cache_; }

  uint64_t fp(size_t layer, size_t plan, size_t pt) const {
    return fps_[(layer * num_plans_ + plan) * space_.num_points() + pt];
  }

  /// True when every stored layer of every plan is cached at `pt`.
  bool PointCached(size_t pt) const {
    for (size_t layer = 0; layer < specs_.size(); ++layer) {
      for (size_t plan = 0; plan < num_plans_; ++plan) {
        if (!cache_->Contains(fp(layer, plan, pt))) return false;
      }
    }
    return true;
  }

  /// Row-major per-point flags for `CellCostModel::WithDiscountedCells`.
  std::vector<uint8_t> CachedFlags() const {
    std::vector<uint8_t> flags(space_.num_points());
    for (size_t pt = 0; pt < flags.size(); ++pt) {
      flags[pt] = PointCached(pt) ? 1 : 0;
    }
    return flags;
  }

  static bool TileCached(const TileSpec& t, const ParameterSpace& space,
                         const std::vector<uint8_t>& flags) {
    for (size_t yi = t.y_begin; yi < t.y_end; ++yi) {
      for (size_t xi = t.x_begin; xi < t.x_end; ++xi) {
        if (!flags[space.IndexOf(xi, yi)]) return false;
      }
    }
    return t.num_points() > 0;
  }

 private:
  CellResultCache* cache_;
  const ParameterSpace& space_;
  const size_t num_plans_;
  std::vector<std::string> specs_;  ///< warmup spec per stored layer
  std::vector<uint64_t> fps_;       ///< [layer][plan][point], row-major
};

/// Builds the tile a worker would have computed for a fully-cached
/// rectangle straight from the cache: per-layer cell copies, the derived
/// delta for a warm-cold study, wall_seconds 0 (nothing was measured —
/// the same stamp merged artifacts carry). Byte-equivalence holds because
/// hits return the exact Measurement a fresh run would have produced.
Result<MapTile> MaterializeCachedTile(const ShardCacheView& view,
                                      const SweepRequest& req,
                                      const std::vector<std::string>& labels,
                                      const TileSpec& t) {
  auto sub = SliceSpace(req.space, t);
  RM_RETURN_IF_ERROR(sub.status());
  std::vector<RobustnessMap> layers;
  for (size_t layer = 0; layer < view.num_layers(); ++layer) {
    RobustnessMap map(sub.value(), labels);
    for (size_t plan = 0; plan < labels.size(); ++plan) {
      for (size_t syi = 0; syi < sub.value().y_size(); ++syi) {
        for (size_t sxi = 0; sxi < sub.value().x_size(); ++sxi) {
          const size_t parent_pt =
              req.space.IndexOf(t.x_begin + sxi, t.y_begin + syi);
          Measurement m;
          if (!view.cache()->Lookup(view.fp(layer, plan, parent_pt), &m)) {
            return Status::Internal(
                "cell vanished from the cache while planning tile " +
                std::to_string(t.shard_id));
          }
          map.Set(plan, sub.value().IndexOf(sxi, syi), std::move(m));
        }
      }
    }
    layers.push_back(std::move(map));
  }
  if (req.study == StudyKind::kWarmColdDelta) {
    auto delta = DiffMaps(layers[1], layers[0]);
    RM_RETURN_IF_ERROR(delta.status());
    layers.push_back(std::move(delta).value());
  }
  MapTile out{t, req.space, std::move(layers.front()), 0.0};
  out.layer_names = StudyLayerNames(req.study);
  out.extra_layers.assign(std::make_move_iterator(layers.begin() + 1),
                          std::make_move_iterator(layers.end()));
  return out;
}

/// The sharded-process backend: partitions the grid with `ShardPlanner`
/// under the analytic cost model, skips tiles already valid on disk
/// (unless resume is off), computes the rest through a pull-based work
/// queue — up to num_workers subprocesses in flight, each freed worker
/// slot immediately pulling the heaviest pending tile — and merges the
/// tile files layer by layer into maps bit-identical to an in-process
/// sweep of the same study (every cell is an order-independent
/// measurement, so its value cannot depend on which process ran it).
Result<SweepOutcome> RunShardedStudy(RunContext* ctx,
                                     const Executor& executor,
                                     const SweepRequest& req) {
  const ShardedSweepOptions& opts = req.sharded;
  const ParameterSpace& space = req.space;
  if (opts.tile_dir.empty()) {
    return Status::InvalidArgument("sharded sweep needs a tile_dir");
  }
  if (OrderDependent(*ctx, req)) {
    return Status::InvalidArgument(
        "sharded sweeps require an order-independent configuration: "
        "kPriorRun cells inherit cache state across the tile boundaries "
        "sharding erases, and shared-pool (or deterministic-schedule) "
        "studies are in-process serial features");
  }
  const unsigned num_workers = ResolveParallelism(opts.num_workers);
  const size_t num_tiles =
      opts.num_tiles == 0 ? num_workers : opts.num_tiles;
  TraceSpan coordinator_span("shard.coordinator", "shard");
  std::unique_ptr<TraceSpan> phase_span =
      std::make_unique<TraceSpan>("shard.plan", "shard");

  std::vector<std::string> labels;
  labels.reserve(req.plans.size());
  for (PlanKind k : req.plans) labels.push_back(PlanKindLabel(k));

  // The cache view, computed once at planning time: it discounts cached
  // cells in the cost model below, skips dispatching fully-cached tiles,
  // and keys the post-merge publish of every measured cell.
  std::optional<ShardCacheView> cache_view;
  std::vector<uint8_t> cached_flags;
  if (req.cell_cache != nullptr) {
    cache_view.emplace(req.cell_cache, *ctx, executor.db().domain, req,
                       labels);
    cached_flags = cache_view->CachedFlags();
  }
  // The scheduling model: the analytic selectivity prior, with cached
  // cells costed as hits, not measurements — at a vanishing epsilon the
  // partition cuts its tiles around the cells that still need measuring.
  auto model = CellCostModel::Analytic(space);
  RM_RETURN_IF_ERROR(model.status());
  if (cache_view.has_value()) {
    model = model.value().WithDiscountedCells(cached_flags);
  }
  auto tiles = ShardPlanner::Partition(space, num_tiles, model.value());
  RM_RETURN_IF_ERROR(tiles.status());
  RM_RETURN_IF_ERROR(EnsureDirectory(opts.tile_dir));

  // Synthetic shard ids — straggler pieces and coverage remainders below —
  // must collide neither with a planned id nor with any tile file already
  // in the directory, so both are folded into the counter before any id is
  // handed out.
  const std::vector<std::string> disk_tiles = SortedTileFiles(opts.tile_dir);
  size_t next_shard_id = 0;
  for (const TileSpec& t : tiles.value()) {
    next_shard_id = std::max(next_shard_id, t.shard_id + 1);
  }
  for (const std::string& name : disk_tiles) {
    size_t id = 0;
    if (std::sscanf(name.c_str(), "tile_%zu.rmt", &id) == 1) {
      next_shard_id = std::max(next_shard_id, id + 1);
    }
  }

  // The coverage-adoption candidate pool: every valid on-disk tile of this
  // exact study (grid, plans, layers — shard id deliberately ignored, any
  // valid tile for this study carries the right bytes for its rectangle).
  // Read lazily: the pool is only needed when a planned tile's own file is
  // missing or invalid, i.e. when a previous run was killed or damaged.
  std::vector<std::pair<std::string, MapTile>> candidates;
  bool candidates_loaded = false;
  const auto load_candidates = [&] {
    if (candidates_loaded) return;
    candidates_loaded = true;
    for (const std::string& name : disk_tiles) {
      auto tile = ReadMapTileFile(opts.tile_dir + "/" + name);
      if (!tile.ok()) continue;  // damaged or foreign file: not a candidate
      const MapTile& t = tile.value();
      if (!(t.parent_space == space) || t.map.plan_labels() != labels ||
          t.num_layers() != StudyLayerCount(req.study) ||
          t.layer_names != StudyLayerNames(req.study)) {
        continue;
      }
      candidates.emplace_back(name, std::move(tile).value());
    }
  };

  // Scan the checkpoint directory: valid tiles are carried over in memory,
  // the rest queue for workers. A planned tile whose own file is gone may
  // still be partially covered by tiles a killed run left behind — most
  // importantly the pieces of a straggler split — so those are adopted and
  // only the uncovered remainder rectangles queue (as fresh synthetic
  // tiles).
  phase_span = std::make_unique<TraceSpan>("shard.scan", "shard");
  std::vector<MapTile> loaded;
  std::vector<TileSpec> todo;
  std::vector<bool> candidate_used;
  for (const TileSpec& t : tiles.value()) {
    const std::string path = opts.tile_dir + "/" + TileFileName(t.shard_id);
    auto tile = opts.resume
                    ? LoadValidTile(path, t, space, labels, req.study)
                    : Result<MapTile>(Status::NotFound("resume disabled"));
    if (tile.ok()) {
      loaded.push_back(std::move(tile).value());
      SweepTelemetry::Get().AddCounter("shard.tiles_resumed", 1);
      if (opts.verbose) {
        std::fprintf(stderr, "  shard: tile %zu valid on disk, reused\n",
                     t.shard_id);
      }
      continue;
    }
    std::remove(TileErrFileName(path).c_str());
    // A tile whose every cell is already cached never reaches a worker:
    // its layers are materialized from the cache right here. Nothing is
    // written to disk — the point of skipping is to touch nothing.
    if (cache_view.has_value() &&
        ShardCacheView::TileCached(t, space, cached_flags)) {
      auto mem = MaterializeCachedTile(*cache_view, req, labels, t);
      RM_RETURN_IF_ERROR(mem.status());
      loaded.push_back(std::move(mem).value());
      SweepTelemetry::Get().AddCounter("shard.tiles_from_cache", 1);
      // The per-cell hit counters the lookup path would have bumped had
      // the tile been dispatched — a warm rerun's telemetry shows
      // cache.hits == cells either way. Stored layers only: a warm-cold
      // delta is derived, not looked up.
      const size_t tile_cells =
          cache_view->num_layers() * labels.size() * t.x_size() * t.y_size();
      SweepTelemetry::Get().AddCounter("cache.hits", tile_cells);
      SweepTelemetry::Get().AddCounter("sweep.cells_reused", tile_cells);
      if (opts.verbose) {
        std::fprintf(stderr,
                     "  shard: tile %zu fully cached, not dispatched\n",
                     t.shard_id);
      }
      continue;
    }
    std::vector<TileSpec> remainders{t};
    bool adopted_any = false;
    if (opts.resume) {
      load_candidates();
      candidate_used.resize(candidates.size(), false);
      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        if (candidate_used[ci]) continue;
        const TileSpec& cand = candidates[ci].second.spec;
        // Adopt only a candidate nesting inside one current remainder
        // piece; anything straddling a cut is simply recomputed — the
        // exact-cover check in MergeTileLayers stays the safety net.
        const auto host =
            std::find_if(remainders.begin(), remainders.end(),
                         [&](const TileSpec& r) {
                           return RectContains(r, cand);
                         });
        if (host == remainders.end()) continue;
        const TileSpec hole = *host;
        remainders.erase(host);
        SubtractRect(hole, cand, &remainders);
        candidate_used[ci] = true;
        adopted_any = true;
        loaded.push_back(std::move(candidates[ci].second));
        SweepTelemetry::Get().AddCounter("shard.tiles_adopted", 1);
        if (opts.verbose) {
          std::fprintf(stderr,
                       "  shard: tile %zu partially covered by %s, "
                       "adopted\n",
                       t.shard_id, candidates[ci].first.c_str());
        }
      }
    }
    if (!adopted_any) {
      todo.push_back(t);
      continue;
    }
    for (TileSpec r : remainders) {
      r.shard_id = next_shard_id++;
      const std::string rpath =
          opts.tile_dir + "/" + TileFileName(r.shard_id);
      std::remove(TileErrFileName(rpath).c_str());
      todo.push_back(r);
    }
  }
  SweepTelemetry::Get().AddCounter("shard.tiles_queued", todo.size());

  // Pull-based dispatch: the pending queue is ordered heaviest-first under
  // the cost model (LPT — the classic makespan heuristic), and every time
  // a worker slot frees up it pulls the head of the queue. The expensive
  // corner tiles start immediately; the cheap tail fills in around them
  // instead of everyone waiting on a monster tile scheduled last.
  SortTilesHeaviestFirst(&todo, model.value());

  ShardedSweepStats local;
  local.tiles_total = tiles.value().size();
  local.tiles_reused = loaded.size();

  // Straggler splitting, decided purely from the cost model before any
  // dispatch (never from mid-run wall-clock observations — reap timing
  // would make the tile set, the stats, and the verbose output depend on
  // scheduling luck): with idle workers guaranteed — fewer pending tiles
  // than workers, the resume-two-damaged-tiles-on-a-big-box shape — any
  // pending tile still holding more than 1.25× a worker's fair share of
  // the pending cost is cut at its cost midpoint, repeatedly, until the
  // heaviest pending tile fits or is a single cell. Tiles are keyed by
  // cell ranges, so the merged bytes cannot change; only the checkpoint
  // granularity does.
  if (num_workers > 1 && !todo.empty() &&
      todo.size() < num_workers) {
    double pending_total = 0;
    for (const TileSpec& t : todo) pending_total += model.value().TileCost(t);
    const double threshold =
        1.25 * pending_total / static_cast<double>(num_workers);
    while (todo.front().num_points() > 1 &&
           model.value().TileCost(todo.front()) > threshold) {
      const TileSpec head = todo.front();
      todo.erase(todo.begin());
      auto [a, b] = SplitTileAtCostMidpoint(head, model.value());
      a.shard_id = next_shard_id++;
      b.shard_id = next_shard_id++;
      for (const TileSpec& child : {a, b}) {
        const std::string cpath =
            opts.tile_dir + "/" + TileFileName(child.shard_id);
        std::remove(TileErrFileName(cpath).c_str());
        const double child_cost = model.value().TileCost(child);
        const auto pos = std::find_if(
            todo.begin(), todo.end(), [&](const TileSpec& u) {
              return model.value().TileCost(u) < child_cost;
            });
        todo.insert(pos, child);
      }
      ++local.tiles_split;
      SweepTelemetry::Get().AddCounter("shard.tiles_split", 1);
      if (opts.verbose) {
        std::fprintf(stderr,
                     "  shard: straggler tile %zu split into %zu + %zu\n",
                     head.shard_id, a.shard_id, b.shard_id);
      }
    }
  }

  local.tiles_computed = todo.size();
  local.workers_spawned =
      static_cast<unsigned>(std::min<size_t>(num_workers, todo.size()));

  if (opts.verbose && !todo.empty()) {
    std::fprintf(stderr,
                 "  shard: %s study, %zu pending tiles "
                 "(heaviest %.3g, lightest %.3g relative cost)\n",
                 StudyKindName(req.study), todo.size(),
                 model.value().TileCost(todo.front()),
                 model.value().TileCost(todo.back()));
  }

  // The policy an exec-mode worker must reconstruct: the warm layer's for
  // a warm-cold study, the context's own for a plain study measured warm.
  const WarmupPolicy& flag_policy = req.study == StudyKind::kWarmColdDelta
                                        ? req.warm_policy
                                        : ctx->warmup;

  // One subprocess per outstanding tile, at most num_workers in flight.
  // stdio is flushed first so forked children do not replay the parent's
  // buffered output. Each in-flight tile occupies a worker *slot*; per-slot
  // busy time is what the balance metrics report.
  phase_span = std::make_unique<TraceSpan>("shard.dispatch", "shard");
  std::fflush(stdout);
  std::fflush(stderr);
  // Exec-mode workers can only see the cache through its file, so
  // everything this coordinator holds must hit the disk before the first
  // worker starts; fork-mode workers inherit the in-memory cache for
  // free. A failed flush degrades reuse, never the sweep.
  if (!todo.empty() && !opts.worker_command.empty() &&
      req.cell_cache != nullptr && req.cell_cache->attached()) {
    if (Status s = req.cell_cache->WriteCellCacheFile(); !s.ok()) {
      std::fprintf(stderr, "  shard: cell cache flush: %s\n",
                   s.ToString().c_str());
    }
  }
  // Workers report their observability through per-tile sidecar files next
  // to the tile itself; the coordinator folds each one in at reap time.
  const auto trace_sidecar = [](const std::string& tile_path) {
    return tile_path + ".trace.json";
  };
  const auto telemetry_sidecar = [](const std::string& tile_path) {
    return tile_path + ".telemetry.json";
  };
  struct InFlight {
    size_t todo_index;
    size_t slot;
    int64_t started_ns;
  };
  std::map<pid_t, InFlight> running;
  std::set<size_t> free_slots;
  std::vector<size_t> failed;
  size_t next = 0;
  size_t computed_done = 0;
  // On a coordinator error every in-flight worker is waited for before the
  // error returns: an unreaped worker would go on writing into tile_dir
  // after the call had reported failure.
  const auto reap_in_flight = [&running] {
    for (const auto& entry : running) {
      while (::waitpid(entry.first, nullptr, 0) < 0 && errno == EINTR) {
      }
    }
    running.clear();
  };
  while (next < todo.size() || !running.empty()) {
    while (next < todo.size() && running.size() < num_workers) {
      const TileSpec& t = todo[next];
      const std::string path =
          opts.tile_dir + "/" + TileFileName(t.shard_id);
      // A stale sidecar from an aborted run must never merge as if this
      // dispatch produced it.
      std::remove(trace_sidecar(path).c_str());
      std::remove(telemetry_sidecar(path).c_str());
      [[maybe_unused]] const pid_t coordinator = ::getpid();
      pid_t pid = ::fork();
      if (pid < 0) {
        const int fork_errno = errno;
        reap_in_flight();
        return Status::Internal("fork failed: " + ErrnoString(fork_errno));
      }
      if (pid == 0) {
#ifdef __linux__
        // A worker dies with its coordinator: a killed coordinator must
        // not leave workers writing into tile_dir behind it. The signal
        // fires when the forking thread exits, and that thread stays here
        // until every worker is reaped. A coordinator that died before
        // the prctl took effect is caught by the parent check.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != coordinator) ::_exit(1);
#endif
        // Worker. Either exec the external worker binary, or compute the
        // tile right here on the forked copy of the parent's environment.
        if (!opts.worker_command.empty()) {
          std::vector<std::string> args = opts.worker_command;
          // The rectangle rides along: the cost-weighted boundaries depend
          // on the coordinator's model (cache discounts included), so its
          // exact cuts are the contract, not something a worker
          // recomputes. The study (and its warmup policy, when not cold)
          // completes the contract: a worker computing a different study
          // under the right tile name would poison the merge.
          args.push_back("--tile=" + std::to_string(t.shard_id));
          args.push_back("--rect=" + RectSpecString(t));
          args.push_back("--study=" + std::string(StudyKindName(req.study)));
          if (!flag_policy.is_cold()) {
            args.push_back("--warmup=" + flag_policy.ToSpec());
          }
          args.push_back("--out=" + path);
          // A persistent cache rides along read-only (the coordinator
          // flushed it before dispatch); workers publish only in memory
          // and the coordinator re-publishes the merged cells itself.
          if (req.cell_cache != nullptr && req.cell_cache->attached()) {
            const std::string& cache_file = req.cell_cache->path();
            args.push_back("--cache-dir=" +
                           cache_file.substr(0, cache_file.rfind('/')));
          }
          // Progressive coarse levels sweep a sublattice; the worker must
          // subsample its reconstructed grid the same way before slicing.
          if (opts.lattice_stride > 1) {
            args.push_back("--stride=" +
                           std::to_string(opts.lattice_stride));
          }
          // Observability rides along only when the coordinator itself is
          // collecting: the worker traces against the coordinator's epoch
          // into per-tile sidecars merged at reap time.
          if (Tracer::Get().enabled()) {
            args.push_back("--trace=" + trace_sidecar(path));
            args.push_back("--trace-epoch=" +
                           std::to_string(Tracer::Get().epoch_ns()));
          }
          if (SweepTelemetry::Get().enabled()) {
            args.push_back("--telemetry=" + telemetry_sidecar(path));
          }
          std::vector<char*> argv;
          argv.reserve(args.size() + 1);
          for (std::string& a : args) argv.push_back(a.data());
          argv.push_back(nullptr);
          ::execvp(argv[0], argv.data());
          WriteTileErrFile(path, Status::Internal("cannot exec " + args[0] +
                                                  ": " + ErrnoString(errno)));
          ::_exit(127);
        }
        // Forked children inherit the parent's buffered events; drop them
        // (keeping the shared epoch) so the sidecars report only this
        // tile's work.
        if (Tracer::Get().enabled()) {
          const int64_t epoch = Tracer::Get().epoch_ns();
          Tracer::Get().Reset();
          Tracer::Get().SetEpochNs(epoch);
        }
        if (SweepTelemetry::Get().enabled()) SweepTelemetry::Get().Reset();
        Status s = ComputeAndWriteTile(ctx, executor, req.plans, space, t,
                                       path, req.study, req.warm_policy,
                                       req.cell_cache);
        if (!s.ok()) {
          WriteTileErrFile(path, s);
          ::_exit(1);
        }
        if (Tracer::Get().enabled()) {
          Status ts = Tracer::Get().WriteFile(trace_sidecar(path));
          if (!ts.ok()) {
            std::fprintf(stderr, "  shard: tile %zu trace sidecar: %s\n",
                         t.shard_id, ts.ToString().c_str());
          }
        }
        if (SweepTelemetry::Get().enabled()) {
          Status ms =
              SweepTelemetry::Get().WriteFile(telemetry_sidecar(path));
          if (!ms.ok()) {
            std::fprintf(stderr,
                         "  shard: tile %zu telemetry sidecar: %s\n",
                         t.shard_id, ms.ToString().c_str());
          }
        }
        ::_exit(0);
      }
      size_t slot;
      if (!free_slots.empty()) {
        slot = *free_slots.begin();
        free_slots.erase(free_slots.begin());
      } else {
        slot = local.worker_busy_seconds.size();
        local.worker_busy_seconds.push_back(0);
      }
      running.emplace(pid, InFlight{next, slot, MonotonicNowNs()});
      SweepTelemetry::Get().AddCounter("shard.tiles_dispatched", 1);
      ++next;
    }
    // Reap exactly one of *our* workers. waitpid(-1) would also consume
    // the exit status of any unrelated child an embedding application has
    // in flight, so poll the known pids instead; tiles take seconds, the
    // 10 ms poll interval is noise.
    bool reaped = false;
    while (!reaped) {
      for (auto it = running.begin(); it != running.end();) {
        int wstatus = 0;
        pid_t r = ::waitpid(it->first, &wstatus, WNOHANG);
        if (r == 0 || (r < 0 && errno == EINTR)) {
          ++it;
          continue;
        }
        if (r < 0) {
          const int wait_errno = errno;
          running.erase(it);
          reap_in_flight();
          return Status::Internal("waitpid failed: " +
                                  ErrnoString(wait_errno));
        }
        const size_t idx = it->second.todo_index;
        const int64_t started_ns = it->second.started_ns;
        const double tile_wall_seconds =
            static_cast<double>(MonotonicNowNs() - started_ns) * 1e-9;
        local.worker_busy_seconds[it->second.slot] += tile_wall_seconds;
        free_slots.insert(it->second.slot);
        it = running.erase(it);
        reaped = true;
        const std::string tile_path =
            opts.tile_dir + "/" + TileFileName(todo[idx].shard_id);
        if (Tracer::Get().enabled()) {
          // The dispatch-to-reap span for this tile, on the coordinator's
          // timeline; the worker's own spans sit inside it once the
          // sidecar merges.
          Tracer::Get().AddComplete(
              "shard.tile " + std::to_string(todo[idx].shard_id), "shard",
              started_ns, MonotonicNowNs() - started_ns);
        }
        SweepTelemetry::Get().RecordLatency("shard.tile_wall_seconds",
                                            tile_wall_seconds);
        if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) {
          ++computed_done;
          SweepTelemetry::Get().AddCounter("shard.tiles_computed", 1);
          // Fold the worker's sidecars in and drop them; a missing or
          // unreadable sidecar degrades the trace, never the sweep.
          if (Tracer::Get().enabled()) {
            Status ms = Tracer::Get().MergeFromFile(trace_sidecar(tile_path));
            if (ms.ok()) {
              std::remove(trace_sidecar(tile_path).c_str());
            } else {
              std::fprintf(stderr, "  shard: tile %zu trace sidecar: %s\n",
                           todo[idx].shard_id, ms.ToString().c_str());
            }
          }
          if (SweepTelemetry::Get().enabled()) {
            Status ms = SweepTelemetry::Get().MergeFromFile(
                telemetry_sidecar(tile_path));
            if (ms.ok()) {
              std::remove(telemetry_sidecar(tile_path).c_str());
            } else {
              std::fprintf(stderr,
                           "  shard: tile %zu telemetry sidecar: %s\n",
                           todo[idx].shard_id, ms.ToString().c_str());
            }
          }
          if (opts.verbose) {
            std::fprintf(stderr,
                         "  shard: tile %zu computed (%zu/%zu done)\n",
                         todo[idx].shard_id,
                         local.tiles_reused + computed_done,
                         local.tiles_total);
          }
        } else {
          SweepTelemetry::Get().AddCounter("shard.tiles_failed", 1);
          failed.push_back(idx);
        }
      }
      if (!reaped) ::usleep(10000);
    }
  }

  if (!failed.empty()) {
    // Report the failure of the lowest shard id — stable whatever dispatch
    // order the cost model produced — with the worker's own Status when it
    // managed to leave one. Completed tiles stay on disk, so the rerun
    // that follows a fix resumes instead of restarting.
    size_t worst = failed.front();
    for (size_t idx : failed) {
      if (todo[idx].shard_id < todo[worst].shard_id) worst = idx;
    }
    const TileSpec& t = todo[worst];
    const std::string path = opts.tile_dir + "/" + TileFileName(t.shard_id);
    auto msg = ReadErrFile(path);
    return Status::Internal(
        "sweep worker for tile " + std::to_string(t.shard_id) + " failed" +
        (msg.ok() ? ": " + msg.value()
                  : " without leaving an error file (killed?)"));
  }

  // Merge: freshly computed tiles are read back from disk — the same
  // validated path a resumed coordinator takes — then stitched with the
  // reused ones, layer by layer.
  phase_span = std::make_unique<TraceSpan>("shard.merge", "shard");
  for (const TileSpec& t : todo) {
    const std::string path = opts.tile_dir + "/" + TileFileName(t.shard_id);
    auto tile = ReadMapTileFile(path);
    RM_RETURN_IF_ERROR(tile.status());
    loaded.push_back(std::move(tile).value());
  }
  SweepTelemetry::Get().AddCounter("shard.tiles_merged", loaded.size());
  auto merged = MergeTileLayers(space, labels, loaded);
  RM_RETURN_IF_ERROR(merged.status());
  // Every merged cell goes back into the cache — whatever process measured
  // it (workers publish into their own address spaces, which the parent
  // never sees). Insert-if-absent: re-publishing cells the cache already
  // holds keeps a clean cache clean.
  if (cache_view.has_value()) {
    uint64_t published = 0;
    for (size_t layer = 0; layer < cache_view->num_layers(); ++layer) {
      const RobustnessMap& merged_layer = merged.value()[layer];
      for (size_t plan = 0; plan < labels.size(); ++plan) {
        for (size_t pt = 0; pt < space.num_points(); ++pt) {
          if (req.cell_cache->Publish(cache_view->fp(layer, plan, pt),
                                      StudyKindName(req.study),
                                      merged_layer.At(plan, pt))) {
            ++published;
          }
        }
      }
    }
    if (published > 0) {
      SweepTelemetry::Get().AddCounter("cache.publishes", published);
    }
  }
  phase_span.reset();
  if (merged.value().size() != StudyLayerCount(req.study)) {
    return Status::Internal("merged " + std::to_string(merged.value().size()) +
                            " layers for a " +
                            std::to_string(StudyLayerCount(req.study)) +
                            "-layer study");
  }
  SweepOutcome out;
  out.study = req.study;
  out.layers = std::move(merged).value();
  out.sharded_stats = std::move(local);
  return out;
}

/// Nearest-neighbor upsample of one coarse-lattice layer onto the full
/// grid: every full-grid cell shows the measurement of its nearest lattice
/// point (ties round down). Snapshot presentation only — refined levels
/// overwrite it with real measurements.
RobustnessMap UpsampleNearest(const RobustnessMap& coarse,
                              const ParameterSpace& full, size_t stride) {
  const ParameterSpace& lattice = coarse.space();
  RobustnessMap out(full, coarse.plan_labels());
  for (size_t plan = 0; plan < coarse.num_plans(); ++plan) {
    for (size_t yi = 0; yi < full.y_size(); ++yi) {
      const size_t lyi =
          full.is_2d()
              ? std::min((yi + stride / 2) / stride, lattice.y_size() - 1)
              : 0;
      for (size_t xi = 0; xi < full.x_size(); ++xi) {
        const size_t lxi =
            std::min((xi + stride / 2) / stride, lattice.x_size() - 1);
        out.Set(plan, full.IndexOf(xi, yi), coarse.AtXY(plan, lxi, lyi));
      }
    }
  }
  return out;
}

/// The coarse-to-fine driver: one ordinary sweep per refinement level,
/// coarsest lattice first, all levels sharing one cell cache so a cell is
/// measured the first time some level's lattice lands on it and reused by
/// every later level. The final level sweeps the full grid, so its layers
/// are byte-identical to a direct sweep's — earlier levels only changed
/// *when* cells were measured, never what.
Result<SweepOutcome> RunProgressive(RunContext* ctx, const Executor& executor,
                                    const SweepRequest& req) {
  if (OrderDependent(*ctx, req)) {
    return Status::InvalidArgument(
        "progressive sweeps require an order-independent configuration "
        "(no prior-run warmth, shared pool, or deterministic shared "
        "schedule): coarse-level reuse replays cells out of sweep order");
  }
  // Reuse across levels needs a cache; when the caller brought none, a
  // sweep-lifetime in-memory one serves.
  CellResultCache local_cache;
  CellResultCache* cache =
      req.cell_cache != nullptr ? req.cell_cache : &local_cache;

  const bool observing = Observing();
  const int64_t start_ns = observing ? MonotonicNowNs() : 0;
  bool first_snapshot_pending = true;

  std::vector<size_t> strides;
  for (size_t s = req.progressive.initial_stride; s > 1; s /= 2) {
    strides.push_back(s);
  }
  strides.push_back(1);

  Result<SweepOutcome> out =
      Status::Internal("progressive sweep ran no levels");
  for (size_t stride : strides) {
    SweepRequest level = req;
    level.progressive = ProgressiveOptions{};
    level.cell_cache = cache;
    level.space = SubsampleSpace(req.space, stride);
    level.sharded.lattice_stride = stride;
    if (req.backend == BackendKind::kShardedProcess && stride > 1) {
      // Coarse-level checkpoints live one subdirectory per level, so each
      // level's resume scan sees only its own lattice's tiles; the final
      // level writes into the caller's tile_dir exactly as a direct
      // sharded sweep would.
      level.sharded.tile_dir =
          req.sharded.tile_dir + "/level_" + std::to_string(stride);
    }
    out = SweepEngine::Run(ctx, executor, level);
    RM_RETURN_IF_ERROR(out.status());
    SweepTelemetry::Get().AddCounter("sweep.progressive_levels", 1);
    if (req.progressive.on_snapshot) {
      if (stride == 1) {
        req.progressive.on_snapshot(1, out.value().layers);
      } else {
        std::vector<RobustnessMap> filled;
        filled.reserve(out.value().layers.size());
        for (const RobustnessMap& layer : out.value().layers) {
          filled.push_back(UpsampleNearest(layer, req.space, stride));
        }
        req.progressive.on_snapshot(stride, filled);
      }
    }
    if (observing && first_snapshot_pending) {
      first_snapshot_pending = false;
      SweepTelemetry::Get().RecordLatency(
          "sweep.seconds_to_first_snapshot",
          static_cast<double>(MonotonicNowNs() - start_ns) * 1e-9);
    }
  }
  return out;
}

/// The in-process backends (serial, threaded) of `SweepEngine::Run`.
Result<SweepOutcome> RunInProcessStudy(RunContext* ctx,
                                       const Executor& executor,
                                       const SweepRequest& req) {
  SweepOptions opts = req.sweep;
  if (req.backend == BackendKind::kSerial) opts.num_threads = 1;
  SweepOutcome out;
  out.study = req.study;
  if (req.study == StudyKind::kWarmColdDelta) {
    auto layers = WarmColdLayers(ctx, executor, req.plans, req.space,
                                 req.warm_policy, opts, req.cell_cache);
    RM_RETURN_IF_ERROR(layers.status());
    out.layers = std::move(layers).value();
    return out;
  }
  auto map = StudySweep(ctx, executor, req.plans, req.space, opts,
                        StudyKindName(req.study), req.cell_cache);
  RM_RETURN_IF_ERROR(map.status());
  out.layers.push_back(std::move(map).value());
  return out;
}

}  // namespace

Result<StudyKind> StudyKindFromString(const std::string& name) {
  if (name == "plain") return StudyKind::kPlainMap;
  if (name == "warmcold") return StudyKind::kWarmColdDelta;
  return Status::InvalidArgument("unknown study '" + name +
                                 "' (want plain or warmcold)");
}

const char* StudyKindName(StudyKind kind) {
  switch (kind) {
    case StudyKind::kPlainMap:
      return "plain";
    case StudyKind::kWarmColdDelta:
      return "warmcold";
  }
  return "?";
}

size_t StudyLayerCount(StudyKind kind) {
  return kind == StudyKind::kWarmColdDelta ? 3 : 1;
}

std::vector<std::string> StudyLayerNames(StudyKind kind) {
  switch (kind) {
    case StudyKind::kPlainMap:
      return {};  // unnamed single layer: plain tiles stay on v2 bytes
    case StudyKind::kWarmColdDelta:
      return {"cold", "warm", "delta"};
  }
  return {};
}

Result<BackendKind> BackendKindFromString(const std::string& name) {
  if (name == "serial") return BackendKind::kSerial;
  if (name == "threaded") return BackendKind::kThreaded;
  if (name == "sharded") return BackendKind::kShardedProcess;
  return Status::InvalidArgument("unknown backend '" + name +
                                 "' (want serial, threaded, or sharded)");
}

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSerial:
      return "serial";
    case BackendKind::kThreaded:
      return "threaded";
    case BackendKind::kShardedProcess:
      return "sharded";
  }
  return "?";
}

Result<RobustnessMap> SweepEngine::RunCellsIndexed(
    const ParameterSpace& space, const std::vector<std::string>& plan_labels,
    const IndexedPointRunner& runner, const SweepOptions& opts) {
  return RunSerialCells(
      space, plan_labels, opts, /*ctx=*/nullptr, /*point_major=*/false,
      [&](RunContext*, size_t plan, size_t point) {
        return runner(plan, point);
      });
}

Result<RobustnessMap> SweepEngine::RunCellsParallelIndexed(
    const ParameterSpace& space, const std::vector<std::string>& plan_labels,
    const RunContextFactory& factory, const IndexedContextPointRunner& runner,
    const SweepOptions& opts) {
  RM_RETURN_IF_ERROR(ValidateSweepInputs(space, plan_labels));
  const unsigned num_threads = ResolveParallelism(opts.num_threads);
  const size_t points = space.num_points();
  const size_t cells = plan_labels.size() * points;

  // The deterministic concurrent-contention schedule: the serial loop in
  // point-major order on one machine. Shared-pool residency then evolves
  // the same way on every run — unlike the true-parallel schedule below,
  // whose interleaving (intentionally) depends on thread timing.
  if (opts.deterministic_shared_schedule) {
    if (opts.verbose) {
      std::fprintf(stderr,
                   "  sweep: %zu cells (%zu plans), fixed round-robin "
                   "schedule\n",
                   cells, plan_labels.size());
    }
    std::unique_ptr<OwnedRunContext> machine = factory.Acquire();
    auto map = RunSerialCells(space, plan_labels, opts, machine->ctx(),
                              /*point_major=*/true, runner);
    factory.Release(std::move(machine));
    return map;
  }

  // Work units are *cost-weighted cell blocks*: contiguous runs of the
  // serial (plan-major) cell order, cut so each block carries roughly equal
  // analytic cost. Cheap low-selectivity cells batch by the dozen (fewer
  // atomic claims), while the expensive corner degrades to single-cell
  // blocks (no worker is ever stuck behind a mega-block at the tail).
  // Map writes stay keyed by (plan, point), so the result is bit-identical
  // to a serial sweep whatever the block shapes.
  std::vector<double> point_cost(points, 1.0);
  if (auto model = CellCostModel::Analytic(space); model.ok()) {
    for (size_t pt = 0; pt < points; ++pt) {
      const auto [xi, yi] = space.CoordsOf(pt);
      point_cost[pt] = model.value().CellCost(xi, yi);
    }
  }
  double total_cost = 0;
  for (double c : point_cost) total_cost += c;
  total_cost *= static_cast<double>(plan_labels.size());
  // ~16 blocks per worker bounds both the claim rate and the tail: the last
  // block to finish holds at most 1/16th of one worker's fair share.
  const double per_block =
      total_cost / static_cast<double>(std::max<size_t>(
                       size_t{num_threads} * 16, 1));
  std::vector<size_t> block_begin;
  block_begin.push_back(0);
  double acc = 0;
  for (size_t cell = 0; cell < cells; ++cell) {
    acc += point_cost[cell % points];
    if (acc >= per_block && cell + 1 < cells) {
      block_begin.push_back(cell + 1);
      acc = 0;
    }
  }
  block_begin.push_back(cells);
  const size_t num_blocks = block_begin.size() - 1;

  if (opts.verbose) {
    std::fprintf(stderr,
                 "  sweep: %zu cells (%zu plans) in %zu cost-weighted "
                 "blocks on %u thread(s)\n",
                 cells, plan_labels.size(), num_blocks, num_threads);
  }

  // Blocks are claimed from a shared queue. On failure, workers skip cells
  // above the lowest failing cell seen so far; every cell below it is in
  // some block that runs to completion, so the error we return is exactly
  // the one a serial sweep would have hit first.
  std::atomic<size_t> next_block{0};
  std::atomic<size_t> first_failed_cell{cells};
  // The Status itself lives under a capability (atomics carry the cell
  // index; the Status payload cannot be atomic), so a worker publishing a
  // lower failing cell and a worker reading the final error are ordered.
  struct ErrorState {
    Mutex mu;
    Status first_error GUARDED_BY(mu) = Status::OK();
  } err;

  auto record_error = [&](size_t cell, const Status& s) {
    MutexLock lock(&err.mu);
    size_t prev = first_failed_cell.load(std::memory_order_relaxed);
    if (cell < prev) {
      first_failed_cell.store(cell, std::memory_order_relaxed);
      err.first_error = s;
    }
  };

  CellLoop loop{RobustnessMap(space, plan_labels),
                ProgressTracker(opts, plan_labels.size(), points)};
  auto work = [&](unsigned worker_index) {
    TraceSpan worker_span("sweep.worker");
    std::unique_ptr<OwnedRunContext> machine = factory.Acquire();
    {
      // Closed before the machine is parked back in the arena: the
      // observer publishes from the machine's pool at scope exit.
      PoolViewObserver pool_view(machine->ctx()->pool, worker_index);
      for (;;) {
        const size_t block =
            next_block.fetch_add(1, std::memory_order_relaxed);
        if (block >= num_blocks) break;
        SweepTelemetry::Get().AddCounter("sweep.blocks_claimed", 1);
        for (size_t cell = block_begin[block]; cell < block_begin[block + 1];
             ++cell) {
          if (cell > first_failed_cell.load(std::memory_order_relaxed)) {
            continue;
          }
          Status s = loop.Cell(runner, machine->ctx(), &pool_view,
                               cell / points, cell % points);
          if (!s.ok()) record_error(cell, s);
        }
      }
    }
    factory.Release(std::move(machine));
  };

  if (num_threads <= 1) {
    work(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) {
      workers.emplace_back(work, t);
    }
    for (std::thread& t : workers) t.join();
  }

  if (first_failed_cell.load(std::memory_order_relaxed) < cells) {
    MutexLock lock(&err.mu);
    return err.first_error;
  }
  return std::move(loop.map);
}

Result<SweepOutcome> SweepEngine::Run(RunContext* ctx,
                                      const Executor& executor,
                                      const SweepRequest& req) {
  // A progressive sweep's levels are ordinary requests, each checked by
  // its own Run.
  if (req.progressive.enabled()) {
    return RunProgressive(ctx, executor, req);
  }
  Result<SweepOutcome> out = req.backend == BackendKind::kShardedProcess
                                 ? RunShardedStudy(ctx, executor, req)
                                 : RunInProcessStudy(ctx, executor, req);
  RM_RETURN_IF_ERROR(out.status());
  // Checking every layer checks every stored one: the derived delta layer
  // carries no cardinalities (all zero).
  for (const RobustnessMap& layer : out.value().layers) {
    RM_RETURN_IF_ERROR(CheckPlanCardinalities(layer));
  }
  return out;
}

}  // namespace robustmap

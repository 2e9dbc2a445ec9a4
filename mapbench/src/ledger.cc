// The traced run: per-layer metrics measured from the outside in.
//
// The workload's cells are driven through `SweepEngine::RunCellsIndexed`
// (or its parallel form for the threaded workload) by a runner of this
// file's own that repeats `Executor::Run`'s measurement sequence — build,
// cold start, open, drain, close — timing each step, over an `Executor`
// whose table, indexes and buffer pool are counting, timing decorators of
// the environment's. The coordinator, cell cache and map_io layers are
// timed around this file's calls into them, with `ShardedSweepStats` and
// the existing `cache.*` / `shard.*` telemetry counters. Spans go to the
// library's `Tracer`, enabled for the traced parts of the run only. Nothing
// inside the library is instrumented, and every traced map is checked bit
// for bit against the untraced one.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <tuple>

#include "bench.h"
#include "common/minijson.h"
#include "common/trace.h"
#include "core/cell_cache.h"
#include "core/map_io.h"
#include "core/sharded_sweep.h"
#include "core/sweep_telemetry.h"
#include "engine/query.h"
#include "exec/operator.h"
#include "index/index.h"
#include "storage/table.h"

namespace mapbench {
namespace {

using namespace robustmap;
namespace fs = std::filesystem;

/// Per-row layers time one call in this many; counts are exact.
constexpr uint64_t kSampleEvery = 64;

/// Warm reruns of the traced sharded_progressive run (a fixed count keeps
/// the cache counters exact).
constexpr int kLedgerReruns = 50;

constexpr int kCreateRepeats = 5;

/// Calls into one layer function: exact count, sampled busy time.
struct Sampled {
  uint64_t calls = 0;
  uint64_t timed = 0;
  uint64_t timed_ns = 0;

  void Add(const Sampled& o) {
    calls += o.calls;
    timed += o.timed;
    timed_ns += o.timed_ns;
  }
  double MeanNs() const {
    return timed == 0 ? 0 : static_cast<double>(timed_ns) / timed;
  }
};

/// Everything the decorators and the cell runner count. Each sweep thread
/// fills its own and folds it into the run's total after every cell.
struct Ledger {
  Sampled fetch, scan, step, pool;
  uint64_t seeks = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_warms = 0;
  uint64_t cells = 0;
  uint64_t build_ns = 0;
  uint64_t cold_start_ns = 0;
  uint64_t open_ns = 0;
  uint64_t drain_ns = 0;
  uint64_t rows_out = 0;
  uint64_t seq_reads = 0;
  uint64_t random_reads = 0;
  std::vector<double> cell_s;

  void Add(const Ledger& o) {
    fetch.Add(o.fetch);
    scan.Add(o.scan);
    step.Add(o.step);
    pool.Add(o.pool);
    seeks += o.seeks;
    pool_hits += o.pool_hits;
    pool_warms += o.pool_warms;
    cells += o.cells;
    build_ns += o.build_ns;
    cold_start_ns += o.cold_start_ns;
    open_ns += o.open_ns;
    drain_ns += o.drain_ns;
    rows_out += o.rows_out;
    seq_reads += o.seq_reads;
    random_reads += o.random_reads;
    cell_s.insert(cell_s.end(), o.cell_s.begin(), o.cell_s.end());
  }
};

thread_local Ledger tl_ledger;

/// Per-thread call counters of the sampled layers. They pick the timed
/// calls and, unlike the ledger's totals, are never cleared between cells,
/// so a cell's first call is timed no more often than any other.
struct SamplePhase {
  uint64_t fetch = 0, scan = 0, step = 0, pool = 0;
};
thread_local SamplePhase tl_phase;

/// Counts the enclosing call and times it when it is the sampled one of its
/// layer.
class SampledCall {
 public:
  SampledCall(Sampled* s, uint64_t* phase)
      : s_(s),
        timed_((*phase)++ % kSampleEvery == 0),
        start_(timed_ ? NowNs() : 0) {
    ++s_->calls;
  }
  ~SampledCall() {
    if (!timed_) return;
    s_->timed_ns += static_cast<uint64_t>(NowNs() - start_);
    ++s_->timed;
  }
  SampledCall(const SampledCall&) = delete;
  SampledCall& operator=(const SampledCall&) = delete;

 private:
  Sampled* s_;
  bool timed_;
  int64_t start_;
};

// ---- Layer decorators -------------------------------------------------------

class CountingTable : public Table {
 public:
  explicit CountingTable(const Table* inner) : inner_(inner) {}
  uint64_t num_rows() const override { return inner_->num_rows(); }
  uint32_t num_columns() const override { return inner_->num_columns(); }
  uint32_t rows_per_page() const override { return inner_->rows_per_page(); }
  uint64_t base_page() const override { return inner_->base_page(); }
  Status ReadPage(RunContext* ctx, uint64_t page_no, bool cacheable,
                  std::vector<Row>* out) const override {
    SampledCall call(&tl_ledger.scan, &tl_phase.scan);
    return inner_->ReadPage(ctx, page_no, cacheable, out);
  }
  Status FetchRow(RunContext* ctx, Rid rid, Row* out) const override {
    SampledCall call(&tl_ledger.fetch, &tl_phase.fetch);
    return inner_->FetchRow(ctx, rid, out);
  }

 private:
  const Table* inner_;
};

class CountingCursor : public IndexCursor {
 public:
  explicit CountingCursor(std::unique_ptr<IndexCursor> inner)
      : inner_(std::move(inner)) {}
  bool Valid() const override { return inner_->Valid(); }
  void Next(RunContext* ctx) override {
    SampledCall call(&tl_ledger.step, &tl_phase.step);
    inner_->Next(ctx);
  }
  const IndexEntry& entry() const override { return inner_->entry(); }

 private:
  std::unique_ptr<IndexCursor> inner_;
};

class CountingIndex : public Index {
 public:
  explicit CountingIndex(Index* inner) : inner_(inner) {}
  uint32_t num_key_columns() const override {
    return inner_->num_key_columns();
  }
  const std::vector<uint32_t>& key_columns() const override {
    return inner_->key_columns();
  }
  uint64_t num_entries() const override { return inner_->num_entries(); }
  uint32_t entries_per_leaf() const override {
    return inner_->entries_per_leaf();
  }
  int height() const override { return inner_->height(); }
  uint64_t num_leaf_pages() const override { return inner_->num_leaf_pages(); }
  std::unique_ptr<IndexCursor> Seek(RunContext* ctx, int64_t k0,
                                    int64_t k1) override {
    ++tl_ledger.seeks;
    return std::make_unique<CountingCursor>(inner_->Seek(ctx, k0, k1));
  }

 private:
  Index* inner_;
};

/// Wraps a machine's pool for one cell. Keeps its own hit/miss counters
/// (the ones `ColdStart` resets) in step with the wrapped pool's answers.
class CountingPool : public BufferPool {
 public:
  explicit CountingPool(BufferPool* inner) : inner_(inner) {}
  bool Access(uint64_t page, bool cacheable) override {
    SampledCall call(&tl_ledger.pool, &tl_phase.pool);
    const bool hit = inner_->Access(page, cacheable);
    if (hit) {
      ++hits_;
      ++tl_ledger.pool_hits;
    } else {
      ++misses_;
    }
    return hit;
  }
  bool Contains(uint64_t page) const override {
    return inner_->Contains(page);
  }
  void Warm(uint64_t page) override {
    ++tl_ledger.pool_warms;
    inner_->Warm(page);
  }
  void Clear() override { inner_->Clear(); }
  uint64_t capacity_pages() const override { return inner_->capacity_pages(); }
  uint64_t resident_pages() const override { return inner_->resident_pages(); }
  uint64_t node_allocations() const override {
    return inner_->node_allocations();
  }

 private:
  BufferPool* inner_;
};

/// The environment's database behind the decorators, and an `Executor`
/// over them.
class TracedDb {
 public:
  explicit TracedDb(const StudyDb& db)
      : table_(db.table),
        a_(db.idx_a),
        b_(db.idx_b),
        ab_(db.idx_ab),
        ba_(db.idx_ba),
        executor_(Wrap(db)) {}
  const Executor& executor() const { return executor_; }

 private:
  StudyDb Wrap(StudyDb db) {
    db.table = &table_;
    db.idx_a = &a_;
    db.idx_b = &b_;
    db.idx_ab = &ab_;
    db.idx_ba = &ba_;
    return db;
  }
  CountingTable table_;
  CountingIndex a_, b_, ab_, ba_;
  Executor executor_;
};

// ---- Spans ------------------------------------------------------------------

/// Records the span [start_ns, end_ns) on the calling thread.
void AddSpan(const char* name, int64_t start_ns, int64_t end_ns) {
  Tracer::Get().AddComplete(name, "mapbench", start_ns, end_ns - start_ns);
}

/// Self time by span name in the Chrome trace at `path`: each span's
/// duration minus the part of it its direct children on the same thread
/// cover.
Result<std::map<std::string, double>> SelfMs(const std::string& path) {
  auto doc = ParseJsonFile(path);
  RM_RETURN_IF_ERROR(doc.status());
  const JsonValue* events = doc.value().Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::Corruption(path + ": no traceEvents array");
  }
  struct Span {
    double pid, tid, ts_us, end_us;
    std::string name;
  };
  std::vector<Span> spans;
  for (const JsonValue& ev : events->items()) {
    const JsonValue* ph = ev.Find("ph");
    const JsonValue* name = ev.Find("name");
    if (ph == nullptr || !ph->is_string() || ph->string_value() != "X" ||
        name == nullptr || !name->is_string()) {
      continue;
    }
    auto number = [&](const char* key) {
      const JsonValue* v = ev.Find(key);
      return v != nullptr && v->is_number() ? v->number_value() : 0.0;
    };
    const double ts = number("ts");
    spans.push_back(Span{number("pid"), number("tid"), ts, ts + number("dur"),
                         name->string_value()});
  }
  // Per thread by start time, an enclosing span before the spans it holds.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return std::tie(a.pid, a.tid, a.ts_us, b.end_us) <
           std::tie(b.pid, b.tid, b.ts_us, a.end_us);
  });
  std::vector<double> child_us(spans.size(), 0);
  std::vector<size_t> open;  // the spans enclosing the current one
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    while (!open.empty()) {
      const Span& top = spans[open.back()];
      if (top.pid == s.pid && top.tid == s.tid && s.ts_us < top.end_us) break;
      open.pop_back();
    }
    if (!open.empty()) {
      child_us[open.back()] +=
          std::min(s.end_us, spans[open.back()].end_us) - s.ts_us;
    }
    open.push_back(i);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    self[spans[i].name] +=
        (spans[i].end_us - spans[i].ts_us - child_us[i]) / 1e3;
  }
  return self;
}

// ---- The traced cell loop ---------------------------------------------------

struct TraceState {
  std::mutex mu;
  Ledger total;  ///< guarded by mu
};

/// One cell, measured exactly as `Executor::Run` measures it (build the
/// tree, cold start, drain, read the virtual clock and the I/O delta), on a
/// copy of `machine` whose pool is wrapped for the cell.
Result<Measurement> TracedCell(TraceState* st, RunContext* machine,
                               const Executor& executor, PlanKind kind,
                               const std::string& label,
                               const QuerySpec& query) {
  CountingPool pool(machine->pool);
  RunContext ctx = *machine;
  ctx.pool = &pool;
  Ledger& lg = tl_ledger;

  const int64_t t0 = NowNs();
  auto tree = executor.BuildPlan(kind, query);
  const int64_t t1 = NowNs();
  if (!tree.ok()) return tree.status();
  ctx.ColdStart();
  const int64_t t2 = NowNs();
  const IoStats before = ctx.device->stats();
  VirtualStopwatch watch(ctx.clock);
  Operator* op = tree.value().get();
  Status opened = op->Open(&ctx);
  const int64_t t3 = NowNs();
  if (!opened.ok()) return opened;
  uint64_t rows = 0;
  Row row;
  while (op->Next(&ctx, &row)) ++rows;
  const int64_t t4 = NowNs();
  if (!op->status().ok()) return op->status();
  op->Close(&ctx);
  const int64_t t5 = NowNs();

  Measurement m;
  m.seconds = watch.elapsed_seconds();
  m.output_rows = rows;
  m.io = ctx.device->stats().Delta(before);
  m.plan_label = label;

  lg.cells += 1;
  lg.build_ns += t1 - t0;
  lg.cold_start_ns += t2 - t1;
  lg.open_ns += t3 - t2;
  lg.drain_ns += t4 - t3;
  lg.rows_out += rows;
  lg.seq_reads += m.io.sequential_reads;
  lg.random_reads += m.io.random_reads;
  lg.cell_s.push_back(static_cast<double>(t5 - t0) * 1e-9);
  AddSpan("cell", t0, t5);
  AddSpan("engine.build_plan", t0, t1);
  AddSpan("io.cold_start", t1, t2);
  AddSpan("exec.open", t2, t3);
  AddSpan("exec.drain", t3, t4);
  AddSpan("exec.close", t4, t5);
  {
    std::lock_guard<std::mutex> lock(st->mu);
    st->total.Add(lg);
  }
  lg = Ledger{};
  return m;
}

/// Sweeps `req`'s plans over its space through the engine's cell loop with
/// the traced runner: serial on `env`'s machine when `lanes` is 1, else on
/// `lanes` threads over machines from `factory` under `warmup`.
Result<RobustnessMap> TracedSweep(TraceState* st, StudyEnvironment* env,
                                  const TracedDb& db, const SweepRequest& req,
                                  unsigned lanes,
                                  RunContextFactory* factory,
                                  const WarmupPolicy& warmup) {
  std::vector<std::string> labels;
  for (PlanKind k : req.plans) labels.push_back(PlanKindLabel(k));
  std::vector<QuerySpec> queries;
  for (size_t pt = 0; pt < req.space.num_points(); ++pt) {
    queries.push_back(MakeStudyQuery(req.space.x_value(pt),
                                     req.space.y_value(pt), env->domain()));
  }
  const Executor& executor = db.executor();
  if (lanes <= 1) {
    RunContext machine = *env->ctx();
    machine.warmup = warmup;
    return SweepEngine::RunCellsIndexed(
        req.space, labels, [&](size_t plan, size_t point) {
          return TracedCell(st, &machine, executor, req.plans[plan],
                            labels[plan], queries[point]);
        });
  }
  factory->set_warmup(warmup);
  SweepOptions opts;
  opts.num_threads = lanes;
  return SweepEngine::RunCellsParallelIndexed(
      req.space, labels, *factory,
      [&](RunContext* machine, size_t plan, size_t point) {
        return TracedCell(st, machine, executor, req.plans[plan],
                          labels[plan], queries[point]);
      },
      opts);
}

// ---- The run ----------------------------------------------------------------

/// The base of each ratio metric, for the per-layer JSON.
using Bases = std::vector<std::pair<std::string, std::string>>;

/// What the sharded_progressive run measures around the coordinator, the
/// cell cache and map_io; all zero on the other workloads.
struct CoordinatorLedger {
  double shard_tiles = 0;
  double shard_spawns = 0;
  double shard_balance = 0;
  double coord_overhead_s = 0;
  std::string busy_seconds;  ///< the base of shard_balance
  double cache_open_ms = 0;
  double cache_lookups = 0;
  double cache_hits = 0;
  double cache_publishes = 0;
  double cache_flush_ms = 0;
  double cache_file_bytes = 0;
  double tile_write_ms = 0;
  double merge_ms = 0;
  double map_io_bytes = 0;
};

double Counter(const std::map<std::string, uint64_t>& c, const char* name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : static_cast<double>(it->second);
}

/// Writes `final_map` as `tiles` row bands, reads them back and merges
/// them — the tile round trip of the sharded path, timed through map_io's
/// own functions. Returns the cells of the merged map that differ.
uint64_t MapIoRoundTrip(const std::string& dir, const RobustnessMap& final_map,
                        unsigned tiles, CoordinatorLedger* c) {
  const ParameterSpace& space = final_map.space();
  std::vector<std::string> paths;
  fs::create_directories(dir);
  {
    TraceSpan span("map_io.write_tiles", "mapbench");
    const int64_t t0 = NowNs();
    const size_t rows = space.y_size();
    for (unsigned t = 0; t < tiles; ++t) {
      TileSpec spec{t, 0, space.x_size(), rows * t / tiles,
                    rows * (t + 1) / tiles};
      auto slice = SliceSpace(space, spec);
      if (!slice.ok()) return LayerCells({final_map});
      RobustnessMap part(slice.value(), final_map.plan_labels());
      for (size_t pl = 0; pl < final_map.num_plans(); ++pl) {
        for (size_t yi = spec.y_begin; yi < spec.y_end; ++yi) {
          for (size_t xi = 0; xi < space.x_size(); ++xi) {
            part.Set(pl, slice.value().IndexOf(xi, yi - spec.y_begin),
                     final_map.AtXY(pl, xi, yi));
          }
        }
      }
      paths.push_back(dir + "/" + TileFileName(t));
      if (!WriteMapTileFile(paths.back(), MapTile{spec, space, part}).ok()) {
        return LayerCells({final_map});
      }
    }
    c->tile_write_ms = SecondsSince(t0) * 1e3;
  }
  for (const std::string& p : paths) {
    c->map_io_bytes += static_cast<double>(fs::file_size(p));
  }
  TraceSpan span("map_io.read_merge", "mapbench");
  const int64_t t0 = NowNs();
  std::vector<MapTile> read;
  for (const std::string& p : paths) {
    auto tile = ReadMapTileFile(p);
    if (!tile.ok()) return LayerCells({final_map});
    read.push_back(std::move(tile).value());
  }
  auto merged = MergeTiles(space, final_map.plan_labels(), read);
  c->merge_ms = SecondsSince(t0) * 1e3;
  if (!merged.ok()) return LayerCells({final_map});
  return CountDiffering({final_map}, {merged.value()});
}

/// The sharded_progressive coordinator, cache and map_io part: a traced
/// fill with telemetry on, a flush, and kLedgerReruns warm reruns, each
/// checked bit for bit against the untraced fill `fill_layers`.
bool ShardedLedger(const Config& cfg, StudyEnvironment* env, Report* r,
                   CoordinatorLedger* c,
                   const std::vector<RobustnessMap>& fill_layers,
                   double* traced_s) {
  const std::string dir = cfg.out_dir + "/ledger";
  std::error_code ec;
  fs::remove_all(dir, ec);
  SweepTelemetry& telemetry = SweepTelemetry::Get();
  telemetry.Reset();
  telemetry.Enable();
  const std::string cache_dir = dir + "/cache";
  CellResultCache cache;
  {
    TraceSpan span("cache.open", "mapbench");
    cache.Open(cache_dir);
  }
  SweepRequest req = RequestFor(cfg, dir + "/tiles");
  req.cell_cache = &cache;
  std::vector<int64_t> level_done;  // on_snapshot times, coarsest first
  req.progressive.on_snapshot = [&](size_t,
                                    const std::vector<RobustnessMap>&) {
    level_done.push_back(NowNs());
  };
  SweepOutcome outcome;
  {
    TraceSpan span("core.progressive_fill", "mapbench");
    const int64_t t0 = NowNs();
    auto fill = SweepEngine::Run(env->ctx(), env->executor(), req);
    *traced_s = SecondsSince(t0);
    if (!fill.ok()) return Fail(fill.status(), "traced fill");
    outcome = std::move(fill).value();
  }
  r->attempted += LayerCells(outcome.layers);
  r->failed += CountDiffering(fill_layers, outcome.layers);
  {
    TraceSpan span("cache.flush", "mapbench");
    const int64_t t0 = NowNs();
    Status flushed = cache.WriteCellCacheFile();
    c->cache_flush_ms = SecondsSince(t0) * 1e3;
    if (!flushed.ok()) return Fail(flushed, "cache flush");
  }
  c->cache_file_bytes =
      static_cast<double>(fs::file_size(CellCacheFileName(cache_dir)));

  // Coordinator: tiles and forks over all levels from telemetry; balance
  // and overhead of the final (full-grid) level, which carries most cells.
  const auto counters = telemetry.Counters();
  c->shard_tiles = Counter(counters, "shard.tiles_queued") +
                   Counter(counters, "shard.tiles_split") +
                   Counter(counters, "shard.tiles_from_cache");
  c->shard_spawns = Counter(counters, "shard.tiles_dispatched");
  const ShardedSweepStats& stats = outcome.sharded_stats;
  c->shard_balance = stats.busy_balance_ratio();
  double busiest = 0;
  for (double b : stats.worker_busy_seconds) {
    busiest = std::max(busiest, b);
    char text[32];
    std::snprintf(text, sizeof(text), "%s%.4f",
                  c->busy_seconds.empty() ? "" : " ", b);
    c->busy_seconds += text;
  }
  if (level_done.size() >= 2) {
    const double final_level_s =
        static_cast<double>(level_done.back() -
                            level_done[level_done.size() - 2]) *
        1e-9;
    c->coord_overhead_s = final_level_s - busiest;
  }

  std::vector<double> open_ms;
  SweepRequest rerun_req = req;
  rerun_req.progressive.on_snapshot = nullptr;
  rerun_req.sharded.tile_dir = dir + "/rerun_tiles";
  for (int i = 0; i < kLedgerReruns; ++i) {
    TraceSpan rerun_span("core.warm_rerun", "mapbench");
    CellResultCache warm;
    {
      TraceSpan span("cache.open", "mapbench");
      const int64_t t0 = NowNs();
      warm.Open(cache_dir);
      open_ms.push_back(SecondsSince(t0) * 1e3);
    }
    rerun_req.cell_cache = &warm;
    TraceSpan span("core.rerun_sweep", "mapbench");
    auto rerun = SweepEngine::Run(env->ctx(), env->executor(), rerun_req);
    if (!rerun.ok()) return Fail(rerun.status(), "warm rerun");
    r->attempted += LayerCells(rerun.value().layers);
    r->failed += CountDiffering(fill_layers, rerun.value().layers);
  }
  c->cache_open_ms = Median(open_ms);
  const auto after = telemetry.Counters();
  c->cache_hits = Counter(after, "cache.hits");
  c->cache_lookups = c->cache_hits + Counter(after, "cache.misses");
  c->cache_publishes = Counter(after, "cache.publishes");
  telemetry.Disable();
  telemetry.Reset();

  const uint64_t bad =
      MapIoRoundTrip(dir + "/map_io", fill_layers.front(), cfg.workers, c);
  r->attempted += LayerCells({fill_layers.front()});
  r->failed += bad;
  fs::remove_all(dir, ec);
  return true;
}

bool WriteLedgerJson(const Config& cfg, const Report& r, const Bases& bases,
                     const std::map<std::string, double>& self_ms,
                     const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  char buf[256];
  f << "{\n  \"workload\": \"" << cfg.name << "\",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"seed\": %llu,\n  \"hardware_threads\": %u,\n"
                "  \"threads\": %u,\n  \"workers\": %u,\n",
                static_cast<unsigned long long>(cfg.seed),
                cfg.hardware_threads, cfg.threads, cfg.workers);
  f << buf << "  \"metrics\": {\n";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::snprintf(buf, sizeof(buf),
                  "    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}%s\n",
                  m.name.c_str(), m.value, m.unit.c_str(),
                  i + 1 < r.metrics.size() ? "," : "");
    f << buf;
  }
  f << "  },\n  \"bases\": {\n";
  for (size_t i = 0; i < bases.size(); ++i) {
    f << "    \"" << bases[i].first << "\": \"" << bases[i].second << "\""
      << (i + 1 < bases.size() ? "," : "") << "\n";
  }
  f << "  },\n  \"self_ms\": {\n";
  size_t i = 0;
  for (const auto& [name, ms] : self_ms) {
    std::snprintf(buf, sizeof(buf), "%.3f%s\n", ms,
                  ++i < self_ms.size() ? "," : "");
    f << "    \"" << JsonEscape(name) << "\": " << buf;
  }
  f << "  },\n  \"chrome_trace\": \"trace.json\"\n}\n";
  return static_cast<bool>(f);
}

}  // namespace

Report RunLedger(const Config& cfg) {
  Report r;
  TraceState st;
  Bases bases;
  Tracer& tracer = Tracer::Get();

  // workload: StudyEnvironment::Create.
  tracer.Enable();
  std::vector<double> create_ms;
  std::unique_ptr<StudyEnvironment> env;
  const StudyOptions opts = StudyOptionsFor(cfg);
  for (int i = 0; i < kCreateRepeats; ++i) {
    TraceSpan span("workload.create", "mapbench");
    const int64_t t0 = NowNs();
    auto created = StudyEnvironment::Create(opts);
    create_ms.push_back(SecondsSince(t0) * 1e3);
    if (!created.ok()) {
      Fail(created.status(), "StudyEnvironment::Create");
      return Failed(r);
    }
    env = std::move(created).value();
  }
  tracer.Disable();

  // The untraced reference, with the tracer off: the workload's own sweep
  // (for sharded_progressive, its progressive fill into a fresh cache).
  const bool sharded = cfg.workload == Workload::kShardedProgressive;
  std::vector<RobustnessMap> untraced;
  double base_s = 0;
  {
    const std::string dir = cfg.out_dir + "/untraced";
    std::error_code ec;
    fs::remove_all(dir, ec);
    CellResultCache cache;
    SweepRequest ref_req = RequestFor(cfg, dir + "/tiles");
    if (sharded) {
      cache.Open(dir + "/cache");
      ref_req.cell_cache = &cache;
    }
    const int64_t t0 = NowNs();
    auto ref = SweepEngine::Run(env->ctx(), env->executor(), ref_req);
    base_s = SecondsSince(t0);
    fs::remove_all(dir, ec);
    if (!ref.ok()) {
      Fail(ref.status(), "untraced sweep");
      return Failed(r);
    }
    untraced = std::move(ref).value().layers;
    r.attempted += LayerCells(untraced);
    r.failed += CheckSweep(cfg, untraced, true);
  }

  tracer.Enable();
  double traced_s = 0;
  CoordinatorLedger coord;
  if (sharded && !ShardedLedger(cfg, env.get(), &r, &coord, untraced,
                                &traced_s)) {
    return Failed(r);
  }

  // The per-cell layers: the workload's cells through the traced runner.
  // sharded_progressive's workers measure the plain map's cells, which
  // this process drives serially.
  const SweepRequest req = RequestFor(cfg, "");
  const TracedDb db(env->db());
  RunContextFactory factory(*env->ctx());
  const unsigned lanes = cfg.workload == Workload::kWarmPool ? cfg.threads : 1;
  std::vector<RobustnessMap> traced;
  double sweep_s = 0;
  {
    TraceSpan sweep_span("engine.sweep", "mapbench");
    const int64_t t0 = NowNs();
    auto cold = TracedSweep(&st, env.get(), db, req, lanes, &factory,
                            WarmupPolicy::Cold());
    if (!cold.ok()) {
      Fail(cold.status(), "traced sweep");
      return Failed(r);
    }
    traced.push_back(std::move(cold).value());
    if (cfg.workload == Workload::kWarmPool) {
      auto warm = TracedSweep(&st, env.get(), db, req, lanes, &factory,
                              req.warm_policy);
      if (!warm.ok()) {
        Fail(warm.status(), "traced warm sweep");
        return Failed(r);
      }
      auto delta = DiffMaps(warm.value(), traced.front());
      if (!delta.ok()) {
        Fail(delta.status(), "warm-cold delta");
        return Failed(r);
      }
      traced.push_back(std::move(warm).value());
      traced.push_back(std::move(delta).value());
    }
    sweep_s = SecondsSince(t0);
  }
  tracer.Disable();
  if (!sharded) traced_s = sweep_s;
  r.attempted += LayerCells(traced);
  r.failed += CountDiffering(untraced, traced);

  const Ledger& lg = st.total;
  const double cells = static_cast<double>(std::max<uint64_t>(lg.cells, 1));
  auto per_cell = [&](uint64_t ns) { return static_cast<double>(ns) / cells; };
  double cell_sum_s = 0;
  for (double s : lg.cell_s) cell_sum_s += s;
  const double lane_s = lanes * sweep_s;
  char base[160];

  r.Add("workload.create_ms", Median(create_ms), "ms");
  r.Add("storage.fetch_rows", lg.fetch.calls, "count");
  r.Add("storage.fetch_ns", lg.fetch.MeanNs(), "ns");
  r.Add("storage.scan_pages", lg.scan.calls, "count");
  r.Add("storage.scan_ns", lg.scan.MeanNs(), "ns");
  r.Add("index.seeks", lg.seeks, "count");
  r.Add("index.steps", lg.step.calls, "count");
  r.Add("index.step_ns", lg.step.MeanNs(), "ns");
  r.Add("io.pool_accesses", lg.pool.calls, "count");
  r.Add("io.pool_hit_ratio",
          lg.pool.calls == 0 ? 0
                             : static_cast<double>(lg.pool_hits) /
                                   static_cast<double>(lg.pool.calls),
          "ratio");
  std::snprintf(base, sizeof(base), "%llu hits of %llu pool accesses",
                static_cast<unsigned long long>(lg.pool_hits),
                static_cast<unsigned long long>(lg.pool.calls));
  bases.push_back({"io.pool_hit_ratio", base});
  r.Add("io.pool_access_ns", lg.pool.MeanNs(), "ns");
  r.Add("io.pool_warms", lg.pool_warms, "count");
  r.Add("io.cold_start_ns", per_cell(lg.cold_start_ns), "ns");
  r.Add("io.seq_reads", lg.seq_reads, "count");
  r.Add("io.random_reads", lg.random_reads, "count");
  r.Add("exec.open_ns", per_cell(lg.open_ns), "ns");
  r.Add("exec.drain_ns", per_cell(lg.drain_ns), "ns");
  r.Add("exec.rows_out", lg.rows_out, "count");
  r.Add("engine.build_ns", per_cell(lg.build_ns), "ns");
  r.Add("engine.cell_ms_p50", 1e3 * Quantile(lg.cell_s, 0.5), "ms");
  r.Add("engine.cell_ms_p99", 1e3 * Quantile(lg.cell_s, 0.99), "ms");
  r.Add("engine.cells", lg.cells, "count");
  std::snprintf(base, sizeof(base), "%zu cells, %zu beyond p99",
                lg.cell_s.size(), lg.cell_s.size() / 100);
  bases.push_back({"engine.cell_ms_p99", base});
  r.Add("core.loop_ns_per_cell", (lane_s - cell_sum_s) * 1e9 / cells, "ns");
  r.Add("core.thread_busy_ratio", lane_s > 0 ? cell_sum_s / lane_s : 0,
          "ratio");
  std::snprintf(base, sizeof(base),
                "%.4f s in cells of %u lane(s) x %.4f s sweep wall",
                cell_sum_s, lanes, sweep_s);
  bases.push_back({"core.thread_busy_ratio", base});
  bases.push_back({"core.loop_ns_per_cell", base});
  r.Add("core.shard_tiles", coord.shard_tiles, "count");
  r.Add("core.shard_spawns", coord.shard_spawns, "count");
  r.Add("core.shard_balance", coord.shard_balance, "ratio");
  bases.push_back({"core.shard_balance",
                   "busiest / mean worker busy seconds of the final level: [" +
                       coord.busy_seconds + "]"});
  r.Add("core.coord_overhead_s", coord.coord_overhead_s, "s");
  r.Add("cache.open_ms", coord.cache_open_ms, "ms");
  r.Add("cache.lookups", coord.cache_lookups, "count");
  r.Add("cache.hit_ratio",
          coord.cache_lookups > 0 ? coord.cache_hits / coord.cache_lookups : 0,
          "ratio");
  std::snprintf(base, sizeof(base),
                "%.0f hits of %.0f lookups (fill + %d reruns)",
                coord.cache_hits, coord.cache_lookups,
                sharded ? kLedgerReruns : 0);
  bases.push_back({"cache.hit_ratio", base});
  r.Add("cache.publishes", coord.cache_publishes, "count");
  r.Add("cache.flush_ms", coord.cache_flush_ms, "ms");
  r.Add("cache.file_bytes", coord.cache_file_bytes, "bytes");
  r.Add("map_io.tile_write_ms", coord.tile_write_ms, "ms");
  r.Add("map_io.merge_ms", coord.merge_ms, "ms");
  r.Add("map_io.bytes", coord.map_io_bytes, "bytes");
  r.Add("trace.overhead_pct",
          base_s > 0 ? 100.0 * (traced_s - base_s) / base_s : 0, "%");
  std::snprintf(base, sizeof(base),
                "traced %.4f s vs untraced %.4f s (%s)", traced_s, base_s,
                sharded ? "progressive sharded fill" : "full sweep");
  bases.push_back({"trace.overhead_pct", base});

  const std::string trace_path = cfg.out_dir + "/trace.json";
  const std::string ledger_path = cfg.out_dir + "/ledger.json";
  Status written = tracer.WriteFile(trace_path);
  if (!written.ok()) {
    Fail(written, "writing the Chrome trace");
    return Failed(r);
  }
  auto self_ms = SelfMs(trace_path);
  if (!self_ms.ok()) {
    Fail(self_ms.status(), "reading the Chrome trace");
    return Failed(r);
  }
  if (!WriteLedgerJson(cfg, r, bases, self_ms.value(), ledger_path)) {
    std::fprintf(stderr, "mapbench: cannot write %s\n", ledger_path.c_str());
    return Failed(r);
  }
  for (const auto& [ratio, text] : bases) {
    std::printf("base of %s: %s\n", ratio.c_str(), text.c_str());
  }
  std::printf("per-layer JSON: %s\nChrome trace: %s\n", ledger_path.c_str(),
              trace_path.c_str());
  return r;
}

}  // namespace mapbench

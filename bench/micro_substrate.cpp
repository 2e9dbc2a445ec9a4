// Substrate micro-benchmarks (google-benchmark): regression tracking for
// the data structures the simulator's wall-clock performance rests on,
// plus the executor hot paths a sweep spends its cells in — B-tree
// descent, composite cursor steps, the rid sort, the three fetch
// policies, hash-join build/probe, and the cold-start-vs-recycle cost of a
// simulated machine.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/permutation.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "exec/hash_join.h"
#include "exec/rid_sort.h"
#include "index/btree.h"
#include "index/procedural_index.h"
#include "io/buffer_pool.h"
#include "io/run_context.h"
#include "storage/procedural_table.h"
#include "workload/dataset.h"
#include "workload/distributions.h"

namespace robustmap {
namespace {

void BM_Mix64(benchmark::State& state) {
  uint64_t x = 12345;
  for (auto _ : state) {
    x = Mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

void BM_FeistelPermute(benchmark::State& state) {
  FeistelPermutation perm(24, 7);
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(perm.Permute(x++ & 0xffffff));
  }
}
BENCHMARK(BM_FeistelPermute);

void BM_FeistelInverse(benchmark::State& state) {
  FeistelPermutation perm(24, 7);
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(perm.Inverse(x++ & 0xffffff));
  }
}
BENCHMARK(BM_FeistelInverse);

void BM_BTreeBulkLoad(benchmark::State& state) {
  int64_t n = state.range(0);
  std::vector<IndexEntry> entries;
  entries.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    entries.push_back({i / 4, 0, static_cast<Rid>(i)});
  }
  for (auto _ : state) {
    VirtualClock clock;
    SimDevice device(DiskParameters{}, &clock);
    BTreeOptions opts;
    opts.key_columns = {0};
    auto tree = BTree::BulkLoad(&device, entries, opts);
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeBulkLoad)->Arg(100000);

void BM_BTreeSeek(benchmark::State& state) {
  std::vector<IndexEntry> entries;
  for (int64_t i = 0; i < 100000; ++i) {
    entries.push_back({i, 0, static_cast<Rid>(i)});
  }
  VirtualClock clock;
  SimDevice device(DiskParameters{}, &clock);
  LruBufferPool pool(&device, 4096);
  RunContext ctx;
  ctx.clock = &clock;
  ctx.device = &device;
  ctx.pool = &pool;
  BTreeOptions opts;
  opts.key_columns = {0};
  auto tree = BTree::BulkLoad(&device, entries, opts).ValueOrDie();
  Rng rng(3);
  for (auto _ : state) {
    auto c = tree->Seek(&ctx, static_cast<int64_t>(rng.NextBounded(100000)),
                        INT64_MIN);
    benchmark::DoNotOptimize(c->Valid());
  }
}
BENCHMARK(BM_BTreeSeek);

void BM_ProceduralIndexEntryAt(benchmark::State& state) {
  VirtualClock clock;
  SimDevice device(DiskParameters{}, &clock);
  ProceduralTableOptions topts;
  topts.row_bits = 20;
  topts.value_bits = 14;
  auto table = ProceduralTable::Create(&device, topts).ValueOrDie();
  ProceduralIndexOptions iopts;
  iopts.key_columns = {0};
  auto index =
      ProceduralIndex::Create(&device, table.get(), iopts).ValueOrDie();
  uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->EntryAt(k++ & ((1u << 20) - 1)));
  }
}
BENCHMARK(BM_ProceduralIndexEntryAt);

// One step of a cursor on a composite index at the study's scale (4 rows
// per value): the cursor re-materializes its group every 4th step.
void BM_CompositeCursorStep(benchmark::State& state) {
  VirtualClock clock;
  SimDevice device(DiskParameters{}, &clock);
  LruBufferPool pool(&device, 4096);
  RunContext ctx;
  ctx.clock = &clock;
  ctx.device = &device;
  ctx.pool = &pool;
  ProceduralTableOptions topts;
  topts.row_bits = 18;
  topts.value_bits = 16;
  auto table = ProceduralTable::Create(&device, topts).ValueOrDie();
  ProceduralIndexOptions iopts;
  iopts.key_columns = {0, 1};
  auto index =
      ProceduralIndex::Create(&device, table.get(), iopts).ValueOrDie();
  auto cursor = index->SeekFirst(&ctx);
  for (auto _ : state) {
    if (!cursor->Valid()) cursor = index->SeekFirst(&ctx);
    benchmark::DoNotOptimize(cursor->entry());
    cursor->Next(&ctx);
  }
}
BENCHMARK(BM_CompositeCursorStep);

// Sorting 2^18 rows by rid, as MergeJoin does with each input: the
// in-place radix sort (arg 1) against a comparison std::sort (arg 0).
void BM_SortRowsByRid(benchmark::State& state) {
  const bool radix = state.range(0) != 0;
  FeistelPermutation perm(18, 3);
  std::vector<Row> input(size_t{1} << 18);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i].rid = perm.Permute(i);
    input[i].SetCol(0, static_cast<int64_t>(i));
  }
  std::vector<Row> rows;
  for (auto _ : state) {
    state.PauseTiming();
    rows = input;
    state.ResumeTiming();
    if (radix) {
      SortRowsByRid(&rows);
    } else {
      std::sort(rows.begin(), rows.end(),
                [](const Row& a, const Row& b) { return a.rid < b.rid; });
    }
    benchmark::DoNotOptimize(rows.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(radix ? "radix" : "std::sort");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_SortRowsByRid)->Arg(0)->Arg(1);

void BM_BufferPoolAccess(benchmark::State& state) {
  VirtualClock clock;
  SimDevice device(DiskParameters{}, &clock);
  device.AllocateExtent(1 << 20);
  LruBufferPool pool(&device, 8192);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Access(rng.NextBounded(16384)));
  }
}
BENCHMARK(BM_BufferPoolAccess);

void BM_RidMapInsertFind(benchmark::State& state) {
  int64_t n = state.range(0);
  for (auto _ : state) {
    RidMap map(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      map.Insert(static_cast<Rid>(i * 3), static_cast<uint32_t>(i));
    }
    uint32_t hits = 0;
    for (int64_t i = 0; i < n; ++i) {
      hits += map.Find(static_cast<Rid>(i)) != UINT32_MAX ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_RidMapInsertFind)->Arg(100000);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(65536, 0.99);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

// ---- Executor hot paths -------------------------------------------------
// One shared study environment (2^18 rows — small enough to build once in
// milliseconds, large enough that plans run their real code paths), the
// same database every cell of a sweep executes against.

StudyEnvironment& MicroEnv() {
  static std::unique_ptr<StudyEnvironment> env = [] {
    StudyOptions opts;
    opts.row_bits = 18;
    return StudyEnvironment::Create(opts).ValueOrDie();
  }();
  return *env;
}

// Measures one full cell — ColdStart, plan execution, drain — for `kind`
// at 1% selectivity on both predicates: the per-cell unit the batched
// sweep loops amortize their setup across.
void RunPlanCell(benchmark::State& state, PlanKind kind) {
  StudyEnvironment& env = MicroEnv();
  const Executor::PreparedPlan plan =
      env.executor().Prepare(kind).ValueOrDie();
  const QuerySpec query = env.MakeQuery(0.01, 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        env.executor().Run(env.ctx(), plan, query).ValueOrDie());
  }
}

// The three fetch policies of exec/fetch.h, as the study plans exercise
// them: per-rid random fetches, rid-sorted skip-sequential sweep, and the
// bitmap-ordered variant.
void BM_FetchNaive(benchmark::State& state) {
  RunPlanCell(state, PlanKind::kIndexANaive);
}
BENCHMARK(BM_FetchNaive);

void BM_FetchSorted(benchmark::State& state) {
  RunPlanCell(state, PlanKind::kIndexAImproved);
}
BENCHMARK(BM_FetchSorted);

void BM_FetchBitmap(benchmark::State& state) {
  RunPlanCell(state, PlanKind::kCoverABBitmapFetch);
}
BENCHMARK(BM_FetchBitmap);

// Hash-join build + probe (rid intersection over both single-column
// indexes), and the covering merge join it competes with.
void BM_HashJoinBuildProbe(benchmark::State& state) {
  RunPlanCell(state, PlanKind::kHashJoinAB);
}
BENCHMARK(BM_HashJoinBuildProbe);

void BM_MergeJoinCell(benchmark::State& state) {
  RunPlanCell(state, PlanKind::kMergeJoinAB);
}
BENCHMARK(BM_MergeJoinCell);

// Cold start vs. arena recycle of a simulated machine, measured around the
// same cell. `page_node_allocs` counts fresh LRU node heap allocations per
// iteration: a recycled machine re-reads its pages into recycled nodes, so
// the counter must sit well below the cold-start figure — the deterministic
// form of the speedup, independent of the host's allocator and load.
void MachineCell(benchmark::State& state, bool recycle) {
  StudyEnvironment& env = MicroEnv();
  RunContextFactory factory(*env.ctx());
  const Executor::PreparedPlan plan =
      env.executor().Prepare(PlanKind::kIndexAImproved).ValueOrDie();
  const QuerySpec query = env.MakeQuery(0.01, 0.01);
  if (recycle) factory.Release(factory.Create());
  uint64_t node_allocs = 0;
  for (auto _ : state) {
    std::unique_ptr<OwnedRunContext> machine =
        recycle ? factory.Acquire() : factory.Create();
    const uint64_t before = machine->ctx()->pool->node_allocations();
    benchmark::DoNotOptimize(
        env.executor().Run(machine->ctx(), plan, query).ValueOrDie());
    node_allocs += machine->ctx()->pool->node_allocations() - before;
    if (recycle) factory.Release(std::move(machine));
  }
  state.counters["page_node_allocs"] = benchmark::Counter(
      static_cast<double>(node_allocs), benchmark::Counter::kAvgIterations);
}

void BM_MachineColdStart(benchmark::State& state) {
  MachineCell(state, /*recycle=*/false);
}
BENCHMARK(BM_MachineColdStart);

void BM_MachineRecycle(benchmark::State& state) {
  MachineCell(state, /*recycle=*/true);
}
BENCHMARK(BM_MachineRecycle);

}  // namespace
}  // namespace robustmap

BENCHMARK_MAIN();

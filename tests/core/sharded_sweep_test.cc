#include "core/sharded_sweep.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cell_cache.h"
#include "core/sweep_engine.h"
#include "core/sweep_telemetry.h"
#include "testing/map_expect.h"
#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ExpectMapsBitIdentical;
using ::robustmap::testing::ProcEnv;

std::vector<PlanKind> StudySubset() {
  return {PlanKind::kTableScan, PlanKind::kIndexAImproved,
          PlanKind::kMergeJoinAB, PlanKind::kMdamAB};
}

ParameterSpace SmallGrid() {
  return ParameterSpace::TwoD(Axis::Selectivity("a", -5, 0),
                              Axis::Selectivity("b", -5, 0));
}

/// The serial-backend reference map of `StudySubset()` over `space`.
RobustnessMap SerialMap(RunContext* ctx, const Executor& executor,
                        const ParameterSpace& space) {
  return SweepEngine::Run(ctx, executor,
                          {.plans = StudySubset(),
                           .space = space,
                           .backend = BackendKind::kSerial})
      .ValueOrDie()
      .map();
}

/// A plain-map sweep of `plans` over `space` on the sharded-process
/// backend.
Result<SweepOutcome> Sharded(RunContext* ctx, const Executor& executor,
                             const ParameterSpace& space,
                             const ShardedSweepOptions& opts,
                             std::vector<PlanKind> plans = StudySubset()) {
  return SweepEngine::Run(ctx, executor,
                          {.plans = std::move(plans),
                           .space = space,
                           .backend = BackendKind::kShardedProcess,
                           .sharded = opts});
}

/// A unique checkpoint directory per test case, so resume state never
/// bleeds between tests (or between repeated runs of one test binary).
std::string FreshTileDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/sharded_" + name + "_" +
                    std::to_string(::getpid());
  for (size_t id = 0; id < 64; ++id) {
    std::remove((dir + "/" + TileFileName(id)).c_str());
  }
  return dir;
}

TEST(RunShardedSweepTest, MergedMapBitIdenticalAcrossWorkerCounts) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();

  auto reference = SerialMap(env.ctx(), executor, space);

  for (unsigned workers : {1u, 2u, 8u}) {
    ShardedSweepOptions opts;
    opts.tile_dir =
        FreshTileDir("workers" + std::to_string(workers));
    opts.num_workers = workers;
    SweepOutcome merged =
        Sharded(env.ctx(), executor, space, opts).ValueOrDie();
    const ShardedSweepStats& stats = merged.sharded_stats;
    SCOPED_TRACE(std::to_string(workers) + " workers");
    // Each straggler split turns one pending tile into two, so with more
    // workers than planned tiles the computed count exceeds the plan by
    // exactly the split count — and the merged bytes must not notice.
    EXPECT_EQ(stats.tiles_computed, stats.tiles_total + stats.tiles_split);
    if (workers <= 1) {
      EXPECT_EQ(stats.tiles_split, 0u);
    }
    EXPECT_EQ(stats.tiles_reused, 0u);
    ExpectMapsBitIdentical(reference, merged.map());
    // Every slot that ran a tile accounted busy time.
    ASSERT_FALSE(stats.worker_busy_seconds.empty());
    for (double busy : stats.worker_busy_seconds) EXPECT_GT(busy, 0.0);
    EXPECT_GE(stats.busy_balance_ratio(), 1.0);
  }
}

TEST(RunShardedSweepTest, MoreTilesThanWorkersStillMergesExactly) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  auto reference = SerialMap(env.ctx(), executor, space);

  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("finetiles");
  opts.num_workers = 3;
  opts.num_tiles = 11;  // deliberately not a multiple of the worker count
  SweepOutcome merged = Sharded(env.ctx(), executor, space, opts).ValueOrDie();
  const ShardedSweepStats& stats = merged.sharded_stats;
  EXPECT_GT(stats.tiles_total, 3u);
  ExpectMapsBitIdentical(reference, merged.map());
}

TEST(RunShardedSweepTest, WeightedTilesResumeLikeUniformOnes) {
  // The weighted partition is deterministic for a fixed (space, tiles,
  // model), so a second run over the same directory reuses everything.
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("weighted_resume");
  opts.num_workers = 3;
  opts.num_tiles = 5;

  SweepOutcome map1 = Sharded(env.ctx(), executor, space, opts).ValueOrDie();
  const ShardedSweepStats& first = map1.sharded_stats;
  EXPECT_EQ(first.tiles_computed, first.tiles_total);

  SweepOutcome map2 = Sharded(env.ctx(), executor, space, opts).ValueOrDie();
  const ShardedSweepStats& second = map2.sharded_stats;
  EXPECT_EQ(second.tiles_computed, 0u);
  EXPECT_EQ(second.tiles_reused, second.tiles_total);
  ExpectMapsBitIdentical(map1.map(), map2.map());
}

TEST(RunShardedSweepTest, FullyCachedRerunDispatchesNothing) {
  // A first sharded run publishes every merged cell into the cache; a
  // rerun into a fresh tile directory then finds every tile fully cached,
  // materializes it from the cache without spawning a worker, and must
  // still merge the serial bytes.
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  auto reference = SerialMap(env.ctx(), executor, space);

  CellResultCache cache;  // in-memory: never attached, never flushed
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("cache_fill");
  opts.num_workers = 3;
  opts.num_tiles = 5;
  const auto run = [&] {
    return SweepEngine::Run(env.ctx(), executor,
                            {.plans = StudySubset(),
                             .space = space,
                             .backend = BackendKind::kShardedProcess,
                             .sharded = opts,
                             .cell_cache = &cache})
        .ValueOrDie();
  };
  SweepOutcome filled = run();
  EXPECT_EQ(filled.sharded_stats.tiles_computed,
            filled.sharded_stats.tiles_total);
  ExpectMapsBitIdentical(reference, filled.map());
  EXPECT_EQ(cache.size(), StudySubset().size() * space.num_points());

  opts.tile_dir = FreshTileDir("cache_rerun");
  SweepOutcome rerun = run();
  const ShardedSweepStats& stats = rerun.sharded_stats;
  EXPECT_EQ(stats.tiles_computed, 0u);
  EXPECT_EQ(stats.workers_spawned, 0u);
  EXPECT_EQ(stats.tiles_reused, stats.tiles_total);
  ExpectMapsBitIdentical(reference, rerun.map());
}

TEST(ShardedSweepStatsTest, BalanceRatioIsMaxOverMean) {
  ShardedSweepStats stats;
  EXPECT_DOUBLE_EQ(stats.busy_balance_ratio(), 1.0);  // nothing computed
  stats.worker_busy_seconds = {1.0, 1.0, 4.0};        // mean 2, max 4
  EXPECT_DOUBLE_EQ(stats.busy_balance_ratio(), 2.0);
  stats.worker_busy_seconds = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(stats.busy_balance_ratio(), 1.0);
}

TEST(RunShardedSweepTest, ResumeReusesAllValidTiles) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("resume");
  opts.num_workers = 4;

  SweepOutcome map1 = Sharded(env.ctx(), executor, space, opts).ValueOrDie();
  const ShardedSweepStats& first = map1.sharded_stats;
  EXPECT_EQ(first.tiles_computed, first.tiles_total);

  SweepOutcome map2 = Sharded(env.ctx(), executor, space, opts).ValueOrDie();
  const ShardedSweepStats& second = map2.sharded_stats;
  EXPECT_EQ(second.tiles_computed, 0u);
  EXPECT_EQ(second.tiles_reused, second.tiles_total);
  EXPECT_EQ(second.workers_spawned, 0u);
  ExpectMapsBitIdentical(map1.map(), map2.map());
}

TEST(RunShardedSweepTest, ResumeRecomputesOnlyMissingAndCorruptTiles) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("heal");
  opts.num_workers = 4;

  SweepOutcome map1 = Sharded(env.ctx(), executor, space, opts).ValueOrDie();

  // Kill one checkpoint outright and damage a second in place.
  ASSERT_EQ(std::remove((opts.tile_dir + "/" + TileFileName(0)).c_str()), 0);
  {
    std::fstream f(opts.tile_dir + "/" + TileFileName(2),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    auto size = static_cast<long>(f.tellg());
    f.seekg(size / 2);
    const int byte = f.get();
    f.seekp(size / 2);
    f.put(static_cast<char>(byte ^ 0x01));
  }

  SweepOutcome map2 = Sharded(env.ctx(), executor, space, opts).ValueOrDie();
  const ShardedSweepStats& stats = map2.sharded_stats;
  // Two damaged tiles on a four-worker box leaves workers idle, so the
  // straggler splitter cuts the recomputation finer: 2 + one extra tile
  // per split. The healed map must still match the original bytes.
  EXPECT_EQ(stats.tiles_computed, 2u + stats.tiles_split);
  EXPECT_GT(stats.tiles_split, 0u);
  EXPECT_EQ(stats.tiles_reused, stats.tiles_total - 2);
  ExpectMapsBitIdentical(map1.map(), map2.map());
}

TEST(RunShardedSweepTest, MegaTileSplitsAndMeasuresEachCellExactlyOnce) {
  // The worst partition on the skewed study grid: one mega-tile holding
  // every cell, four idle workers. The splitter must cut it into
  // dispatchable pieces, measure every (plan, point) cell exactly once
  // across all worker processes, and merge the serial bytes.
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();

  auto reference = SerialMap(env.ctx(), executor, space);

  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("megatile");
  opts.num_workers = 4;
  opts.num_tiles = 1;
  SweepTelemetry::Get().Reset();
  SweepTelemetry::Get().Enable();
  SweepOutcome merged = Sharded(env.ctx(), executor, space, opts).ValueOrDie();
  const ShardedSweepStats& stats = merged.sharded_stats;
  SweepTelemetry::Get().Disable();
  const auto counters = SweepTelemetry::Get().Counters();
  SweepTelemetry::Get().Reset();

  EXPECT_EQ(stats.tiles_total, 1u);
  EXPECT_GE(stats.tiles_split, 1u);
  EXPECT_EQ(stats.tiles_computed, 1u + stats.tiles_split);
  // Nothing is recomputed under a split: the per-cell counter (merged
  // from every worker's telemetry sidecar) counts each cell once.
  ASSERT_TRUE(counters.count("sweep.cells_measured"));
  EXPECT_EQ(counters.at("sweep.cells_measured"),
            StudySubset().size() * space.num_points());
  ExpectMapsBitIdentical(reference, merged.map());
}

TEST(RunShardedSweepTest, ResumeAdoptsSplitPiecesByCoverage) {
  // A sweep whose tiles were straggler-split leaves *pieces* on disk, not
  // the planned tile files. A later resume against the same plan must
  // adopt the pieces that cover each planned tile instead of recomputing
  // — the resume-after-kill contract when the kill landed after a split
  // checkpointed its children.
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();

  auto reference = SerialMap(env.ctx(), executor, space);

  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("adopt");
  opts.num_workers = 8;
  opts.num_tiles = 2;
  SweepOutcome first = Sharded(env.ctx(), executor, space, opts).ValueOrDie();
  const ShardedSweepStats& stats = first.sharded_stats;
  ASSERT_GE(stats.tiles_split, 1u);
  ExpectMapsBitIdentical(reference, first.map());

  SweepOutcome resumed = Sharded(env.ctx(), executor, space, opts).ValueOrDie();
  const ShardedSweepStats& resumed_stats = resumed.sharded_stats;
  EXPECT_EQ(resumed_stats.tiles_computed, 0u);
  EXPECT_GE(resumed_stats.tiles_reused, 2u);  // adopted pieces, not plans
  ExpectMapsBitIdentical(reference, resumed.map());

  // Lose one checkpointed piece (the kill-mid-split shape): the next
  // resume adopts the surviving pieces and recomputes only the uncovered
  // remainder — and still merges the serial bytes.
  for (size_t id = 2; id < 64; ++id) {
    const std::string path = opts.tile_dir + "/" + TileFileName(id);
    if (std::ifstream(path).good()) {
      std::remove(path.c_str());
      break;
    }
  }
  SweepOutcome healed = Sharded(env.ctx(), executor, space, opts).ValueOrDie();
  const ShardedSweepStats& healed_stats = healed.sharded_stats;
  EXPECT_GE(healed_stats.tiles_computed, 1u);
  EXPECT_GE(healed_stats.tiles_reused, 1u);
  ExpectMapsBitIdentical(reference, healed.map());
}

TEST(RunShardedSweepTest, ResumeRejectsTilesFromADifferentConfiguration) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("reconfig");
  opts.num_workers = 2;
  SweepOutcome coarse = Sharded(env.ctx(), executor, space, opts).ValueOrDie();

  // Same directory, finer grid: every stale tile describes the old grid
  // and must be recomputed, not merged.
  ParameterSpace fine =
      ParameterSpace::TwoD(Axis::SelectivityFine("a", -5, 0, 2),
                           Axis::SelectivityFine("b", -5, 0, 2));
  SweepOutcome fine_map = Sharded(env.ctx(), executor, fine, opts).ValueOrDie();
  const ShardedSweepStats& stats = fine_map.sharded_stats;
  EXPECT_EQ(stats.tiles_computed, stats.tiles_total);
  EXPECT_EQ(stats.tiles_reused, 0u);

  auto reference = SerialMap(env.ctx(), executor, fine);
  ExpectMapsBitIdentical(reference, fine_map.map());
}

TEST(RunShardedSweepTest, WorkerFailurePropagatesItsStatusMessage) {
  ProcEnv env;
  StudyDb db = env.db();
  db.idx_ab = nullptr;  // kMdamAB needs idx(a,b): workers must fail
  Executor executor(db);
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("failure");
  opts.num_workers = 2;
  auto result = Sharded(env.ctx(), executor, SmallGrid(), opts,
                        {PlanKind::kTableScan, PlanKind::kMdamAB});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  // The child's own Status must cross the process boundary via the err
  // file, not collapse into a bare exit code.
  EXPECT_NE(result.status().message().find("sweep worker for tile"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("InvalidArgument"),
            std::string::npos);
}

TEST(RunShardedSweepTest, RejectsOrderDependentWarmupAndMissingDir) {
  ProcEnv env;
  Executor executor(env.db());
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("warmup");
  env.ctx()->warmup = WarmupPolicy::PriorRun();
  auto r = Sharded(env.ctx(), executor, SmallGrid(), opts);
  EXPECT_TRUE(r.status().IsInvalidArgument());
  env.ctx()->warmup = WarmupPolicy::Cold();

  ShardedSweepOptions no_dir;
  EXPECT_TRUE(Sharded(env.ctx(), executor, SmallGrid(), no_dir)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace robustmap

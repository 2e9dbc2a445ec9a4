// Shared definitions of the mapbench program: the fixed study
// every workload sweeps, the run configuration, the output checks, and the
// small statistics helpers the reports use.
#ifndef MAPBENCH_BENCH_H_
#define MAPBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/robustness_map.h"
#include "core/sweep_engine.h"
#include "workload/dataset.h"

namespace mapbench {

using robustmap::RobustnessMap;

/// Scorecard scale: 2^18 rows over a 2^16 value domain, so the selectivity
/// grid reaches down to 2^-16 (one qualifying value).
inline constexpr int kRowBits = 18;
inline constexpr int kValueBits = 16;
inline constexpr int kGridMinLog2 = -16;

/// `StudyOptions::seed`'s default; the golden digests are for this seed.
inline constexpr uint64_t kDefaultSeed = 42;

/// sharded_progressive's `--progressive` initial stride.
inline constexpr size_t kProgressiveStride = 8;

enum class Workload { kColdMap, kWarmPool, kShardedProgressive };

struct Config {
  Workload workload = Workload::kColdMap;
  std::string name;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;      ///< scratch space of this run (cache, tiles)
  std::string golden_path;  ///< per-plan digests for kDefaultSeed
  bool write_golden = false;
  unsigned hardware_threads = 1;
  unsigned threads = 1;  ///< threaded backend (warm_pool)
  unsigned workers = 1;  ///< sharded backend (sharded_progressive)
  std::string exe;       ///< this binary, which warm reruns run as
  std::string rerun_cache;  ///< non-empty: be one warm rerun of this cache
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one benchmark run reports: the metrics of the run's mode, the
/// cells it produced and how many of them failed a check.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

/// Prints "mapbench: <what> failed: <status>" to stderr; returns false.
bool Fail(const robustmap::Status& s, const char* what);

/// Marks a run that stopped on an error: at least one failed cell.
Report Failed(Report r);

int64_t NowNs();
double SecondsSince(int64_t start_ns);

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double Quantile(std::vector<double> samples, double q);
double Median(const std::vector<double>& samples);

/// Peak resident set, MiB: the larger of this process's and its largest
/// reaped child's (the sharded backend's forked workers).
double PeakRssMb();

// ---- The study ------------------------------------------------------------

robustmap::StudyOptions StudyOptionsFor(const Config& cfg);

/// The full 13-plan 2-D request of the workload. `tile_dir` is used by the
/// sharded backend only.
robustmap::SweepRequest RequestFor(const Config& cfg,
                                   const std::string& tile_dir);

/// Cells the workload measures per full map: plans × grid points × measured
/// study layers (plain 1; warm-cold 2, the delta layer is derived).
uint64_t MeasuredCells(const Config& cfg);

/// Total cells in a sweep's layers (derived layers included): the unit the
/// output checks count in.
uint64_t LayerCells(const std::vector<RobustnessMap>& layers);

// ---- Output checks ----------------------------------------------------------

/// True when every field of every cell matches bit for bit.
bool CellsEqual(const robustmap::Measurement& a,
                const robustmap::Measurement& b);

/// Cells of `got` that differ from `want` (all cells when shapes differ).
uint64_t CountDiffering(const std::vector<RobustnessMap>& want,
                        const std::vector<RobustnessMap>& got);

/// FNV-1a digest of one plan's cells of one layer, in point order.
uint64_t PlanDigest(const RobustnessMap& map, size_t plan);

/// Checks one finished sweep of the workload; returns the failing cells.
///   * every measured layer: all plans return the first plan's
///     `output_rows` at each point (the warm layer also the cold layer's);
///   * with `against_golden` at kDefaultSeed (full maps only): every plan's
///     digest matches the golden file (a mismatch fails all of that plan's
///     cells in that layer).
uint64_t CheckSweep(const Config& cfg, const std::vector<RobustnessMap>& layers,
                    bool against_golden);

/// Writes the golden file for `layers` (the --write-golden mode).
bool WriteGolden(const Config& cfg, const std::vector<RobustnessMap>& layers);

// ---- Modes ------------------------------------------------------------------

/// Untraced run: end-to-end metrics.
Report RunEndToEnd(const Config& cfg);

/// One warm rerun of sharded_progressive as a whole process, against the
/// flushed cache in cfg.rerun_cache: prints "<layer> <plan> <digest>" for
/// every plan of every layer of the map it produced. Returns the exit code.
int RunRerunChild(const Config& cfg);

/// Traced run: per-layer metrics, plus the per-layer JSON and Chrome trace
/// written under cfg.out_dir.
Report RunLedger(const Config& cfg);

}  // namespace mapbench

#endif  // MAPBENCH_BENCH_H_

// The three workloads' untraced runs (end-to-end metrics), the study they
// share, and the output checks every produced map goes through.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "common/trace.h"
#include "core/cell_cache.h"
#include "core/sweep_telemetry.h"

namespace mapbench {

using namespace robustmap;

bool Fail(const Status& s, const char* what) {
  std::fprintf(stderr, "mapbench: %s failed: %s\n", what,
               s.ToString().c_str());
  return false;
}

Report Failed(Report r) {
  r.failed = std::max<uint64_t>(r.failed, 1);
  r.attempted = std::max(r.attempted, r.failed);
  return r;
}

int64_t NowNs() { return MonotonicNowNs(); }

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - lo);
}

double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

double PeakRssMb() {
  struct rusage self {};
  struct rusage children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

// ---- The study ------------------------------------------------------------

StudyOptions StudyOptionsFor(const Config& cfg) {
  StudyOptions opts;
  opts.row_bits = kRowBits;
  opts.value_bits = kValueBits;
  opts.seed = cfg.seed;
  if (cfg.workload == Workload::kWarmPool) {
    // A pool that holds every data page (table and indexes), so the warm
    // layer's reads all hit. The page count is a property of the layout,
    // read off a default environment.
    auto probe = StudyEnvironment::Create(opts).ValueOrDie();
    opts.pool_pages = probe->ctx()->device->data_watermark();
  }
  return opts;
}

SweepRequest RequestFor(const Config& cfg, const std::string& tile_dir) {
  SweepRequest req;
  req.plans = AllStudyPlans();
  req.space = ParameterSpace::TwoD(
      Axis::Selectivity("selectivity(a)", kGridMinLog2, 0),
      Axis::Selectivity("selectivity(b)", kGridMinLog2, 0));
  switch (cfg.workload) {
    case Workload::kColdMap:
      req.backend = BackendKind::kSerial;
      break;
    case Workload::kWarmPool:
      req.backend = BackendKind::kThreaded;
      req.study = StudyKind::kWarmColdDelta;
      req.warm_policy = WarmupPolicy::FractionResident(1.0);
      req.sweep.num_threads = cfg.threads;
      break;
    case Workload::kShardedProgressive:
      req.backend = BackendKind::kShardedProcess;
      req.sharded.num_workers = cfg.workers;
      req.sharded.tile_dir = tile_dir;
      req.sharded.resume = false;
      req.progressive.initial_stride = kProgressiveStride;
      break;
  }
  return req;
}

uint64_t MeasuredCells(const Config& cfg) {
  const uint64_t points = (-kGridMinLog2 + 1) * (-kGridMinLog2 + 1);
  const uint64_t layers = cfg.workload == Workload::kWarmPool ? 2 : 1;
  return kNumStudyPlans * points * layers;
}

uint64_t LayerCells(const std::vector<RobustnessMap>& layers) {
  uint64_t cells = 0;
  for (const RobustnessMap& m : layers) {
    cells += m.num_plans() * m.space().num_points();
  }
  return cells;
}

// ---- Output checks ----------------------------------------------------------

bool CellsEqual(const Measurement& a, const Measurement& b) {
  return std::bit_cast<uint64_t>(a.seconds) ==
             std::bit_cast<uint64_t>(b.seconds) &&
         a.output_rows == b.output_rows &&
         a.io.sequential_reads == b.io.sequential_reads &&
         a.io.skip_reads == b.io.skip_reads &&
         a.io.random_reads == b.io.random_reads &&
         a.io.writes == b.io.writes && a.io.buffer_hits == b.io.buffer_hits &&
         a.io.bytes_read == b.io.bytes_read &&
         a.io.bytes_written == b.io.bytes_written &&
         a.plan_label == b.plan_label;
}

uint64_t CountDiffering(const std::vector<RobustnessMap>& want,
                        const std::vector<RobustnessMap>& got) {
  if (want.size() != got.size()) return LayerCells(want);
  uint64_t differing = 0;
  for (size_t l = 0; l < want.size(); ++l) {
    const RobustnessMap& w = want[l];
    const RobustnessMap& g = got[l];
    if (!(w.space() == g.space()) || w.plan_labels() != g.plan_labels()) {
      differing += w.num_plans() * w.space().num_points();
      continue;
    }
    for (size_t pl = 0; pl < w.num_plans(); ++pl) {
      for (size_t pt = 0; pt < w.space().num_points(); ++pt) {
        if (!CellsEqual(w.At(pl, pt), g.At(pl, pt))) ++differing;
      }
    }
  }
  return differing;
}

namespace {

void Fnv(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= 1099511628211ull;
  }
}

/// The layers whose cells are measured (the warm-cold delta is derived).
size_t MeasuredLayers(const Config& cfg) {
  return cfg.workload == Workload::kWarmPool ? 2 : 1;
}

std::string GoldenKey(const Config& cfg, size_t layer,
                      const std::string& label) {
  return cfg.name + " " + std::to_string(layer) + " " + label;
}

std::map<std::string, uint64_t> ReadGolden(const std::string& path) {
  std::map<std::string, uint64_t> golden;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, layer, label, hex;
    if (!(fields >> workload >> layer >> label >> hex)) continue;
    golden[workload + " " + layer + " " + label] =
        std::stoull(hex, nullptr, 16);
  }
  return golden;
}

}  // namespace

uint64_t PlanDigest(const RobustnessMap& map, size_t plan) {
  uint64_t h = 1469598103934665603ull;
  for (char c : map.plan_label(plan)) Fnv(&h, static_cast<uint8_t>(c));
  for (size_t pt = 0; pt < map.space().num_points(); ++pt) {
    const Measurement& m = map.At(plan, pt);
    Fnv(&h, std::bit_cast<uint64_t>(m.seconds));
    Fnv(&h, m.output_rows);
    Fnv(&h, m.io.sequential_reads);
    Fnv(&h, m.io.skip_reads);
    Fnv(&h, m.io.random_reads);
    Fnv(&h, m.io.writes);
    Fnv(&h, m.io.buffer_hits);
    Fnv(&h, m.io.bytes_read);
    Fnv(&h, m.io.bytes_written);
  }
  return h;
}

uint64_t CheckSweep(const Config& cfg, const std::vector<RobustnessMap>& layers,
                    bool against_golden) {
  const size_t measured = MeasuredLayers(cfg);
  if (layers.size() < measured) return LayerCells(layers) + 1;
  uint64_t failed = 0;
  // Every plan computes the same query: equal cardinality at each point,
  // and caching (the warm layer) never changes a result.
  const RobustnessMap& reference = layers[0];
  for (size_t l = 0; l < measured; ++l) {
    const RobustnessMap& map = layers[l];
    for (size_t pt = 0; pt < map.space().num_points(); ++pt) {
      const uint64_t rows = reference.At(0, pt).output_rows;
      for (size_t pl = 0; pl < map.num_plans(); ++pl) {
        if (map.At(pl, pt).output_rows != rows) ++failed;
      }
    }
  }
  if (!against_golden || cfg.write_golden || cfg.seed != kDefaultSeed) {
    return failed;
  }
  static const std::map<std::string, uint64_t> golden =
      ReadGolden(cfg.golden_path);
  const uint64_t plan_cells = reference.space().num_points();
  for (size_t l = 0; l < measured; ++l) {
    for (size_t pl = 0; pl < layers[l].num_plans(); ++pl) {
      auto it = golden.find(GoldenKey(cfg, l, layers[l].plan_label(pl)));
      if (it == golden.end() || it->second != PlanDigest(layers[l], pl)) {
        failed += plan_cells;
      }
    }
  }
  return failed;
}

bool WriteGolden(const Config& cfg, const std::vector<RobustnessMap>& layers) {
  // Keep the other workloads' lines; replace this workload's.
  std::vector<std::string> kept;
  {
    std::ifstream in(cfg.golden_path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(cfg.name + " ", 0) != 0) kept.push_back(line);
    }
  }
  if (kept.empty()) {
    kept.push_back("# Per-plan cell digests (FNV-1a over every field of every "
                   "cell, point order)");
    kept.push_back("# of each workload's final map at seed 42. Regenerate "
                   "only for a change that");
    kept.push_back("# is meant to change map values: run.py --write-golden.");
    kept.push_back("# workload layer plan digest");
  }
  std::ofstream out(cfg.golden_path, std::ios::trunc);
  for (const std::string& line : kept) out << line << "\n";
  for (size_t l = 0; l < MeasuredLayers(cfg); ++l) {
    for (size_t pl = 0; pl < layers[l].num_plans(); ++pl) {
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(PlanDigest(layers[l], pl)));
      out << GoldenKey(cfg, l, layers[l].plan_label(pl)) << " " << hex
          << "\n";
    }
  }
  return static_cast<bool>(out);
}

// ---- End-to-end runs --------------------------------------------------------

namespace {

/// Wall seconds of each set-up window of the direct-sweep workloads;
/// setup_s is the median of all of a run's set-ups.
constexpr double kSetupWindowSeconds = 3;

/// Wall seconds of warm reruns after each cache fill.
constexpr double kRerunSeconds = 1.5;

/// A run's timing samples, reported as medians.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> sweep_s;           ///< timed full sweeps (or fills)
  std::vector<double> first_snapshot_s;  ///< sweep start to first map
  std::vector<double> rerun_s;
};

/// The priming request of set-up: the workload's own request (backend,
/// study, threads) over a 3×3 grid of cheap cells — the 13 plans at
/// selectivities 2^-16, 2^-12, 2^-8 on both axes.
SweepRequest PrimingRequest(const Config& cfg) {
  SweepRequest req = RequestFor(cfg, "");
  const std::vector<double> sels = {1.0 / 65536, 1.0 / 4096, 1.0 / 256};
  req.space = ParameterSpace::TwoD(Axis{"selectivity(a)", sels},
                                   Axis{"selectivity(b)", sels});
  return req;
}

/// True while another timed unit lasting about `last` seconds fits in the
/// run's remaining time, so a run never measures for longer than asked
/// (beyond its first unit).
bool AnotherFits(const Config& cfg, int64_t start, double last) {
  return SecondsSince(start) + last <= cfg.seconds;
}

/// Sets up (StudyEnvironment::Create plus the priming sweep) again and
/// again for kSetupWindowSeconds, at least once; `*env` is the last one.
bool SetUpWindow(const Config& cfg, const SweepRequest& priming, Report* r,
                 Samples* s, std::unique_ptr<StudyEnvironment>* env) {
  const int64_t window_start = NowNs();
  do {
    const int64_t t0 = NowNs();
    auto created = StudyEnvironment::Create(StudyOptionsFor(cfg));
    if (!created.ok()) {
      return Fail(created.status(), "StudyEnvironment::Create");
    }
    *env = std::move(created).value();
    auto primed =
        SweepEngine::Run((*env)->ctx(), (*env)->executor(), priming);
    s->setup_s.push_back(SecondsSince(t0));
    if (!primed.ok()) return Fail(primed.status(), "priming sweep");
    r->attempted += LayerCells(primed.value().layers);
    r->failed += CheckSweep(cfg, primed.value().layers, false);
  } while (SecondsSince(window_start) < kSetupWindowSeconds);
  return true;
}

/// cold_map / warm_pool: a set-up window, then a sweep of the full map on
/// the window's last environment, repeated while another window and sweep
/// fit in the run's time (at least once), and a closing set-up window.
/// The set-up windows lie before and after the sweeps so that setup_s, like
/// cells_per_s, samples the host over the whole run: on the test machine
/// the time of a set-up moved by up to half between windows seconds apart.
bool RunDirect(const Config& cfg, Report* r, Samples* s) {
  std::unique_ptr<StudyEnvironment> env;
  const SweepRequest priming = PrimingRequest(cfg);
  const SweepRequest req = RequestFor(cfg, "");
  const int64_t start = NowNs();
  double last = 0;
  do {
    const int64_t unit_start = NowNs();
    if (!SetUpWindow(cfg, priming, r, s, &env)) return false;
    const int64_t t0 = NowNs();
    auto out = SweepEngine::Run(env->ctx(), env->executor(), req);
    const double sweep_s = SecondsSince(t0);
    if (!out.ok()) return Fail(out.status(), "sweep");
    s->sweep_s.push_back(sweep_s);
    s->first_snapshot_s.push_back(sweep_s);
    s->rerun_s.push_back(sweep_s);
    const auto& layers = out.value().layers;
    r->attempted += LayerCells(layers);
    r->failed += CheckSweep(cfg, layers, true);
    if (cfg.write_golden && !WriteGolden(cfg, layers)) return false;
    last = SecondsSince(unit_start);
  } while (AnotherFits(cfg, start, last + kSetupWindowSeconds));
  return SetUpWindow(cfg, priming, r, s, &env);
}

/// Runs one warm rerun child (see RunRerunChild) over the round directory
/// `dir` and checks its digests against `want`: returns the cells of plans
/// whose digest differs or is missing (every cell when the child fails).
/// `*wall_s` is the child's whole lifetime, spawn to reap.
uint64_t SpawnRerun(const Config& cfg, const std::string& dir,
                    const std::vector<RobustnessMap>& want, double* wall_s) {
  const std::vector<std::string> args = {
      cfg.exe,         "--workload", cfg.name,
      "--seed",        std::to_string(cfg.seed),
      "--seconds",     "1",
      "--trace",       "0",
      "--out",         dir,
      "--golden",      cfg.golden_path,
      "--rerun",       dir + "/cache"};
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) return LayerCells(want);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const int64_t t0 = NowNs();
  pid_t pid = -1;
  const int spawned = posix_spawn(&pid, cfg.exe.c_str(), &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) out.append(buf, n);
  close(fds[0]);
  int status = 1;
  if (spawned == 0) waitpid(pid, &status, 0);
  *wall_s = SecondsSince(t0);
  if (spawned != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "mapbench: warm rerun process failed\n");
    return LayerCells(want);
  }
  std::map<std::pair<size_t, size_t>, uint64_t> got;
  std::istringstream lines(out);
  size_t layer = 0, plan = 0;
  std::string hex;
  while (lines >> layer >> plan >> hex) {
    got[{layer, plan}] = std::stoull(hex, nullptr, 16);
  }
  uint64_t failed = 0;
  for (size_t l = 0; l < want.size(); ++l) {
    for (size_t pl = 0; pl < want[l].num_plans(); ++pl) {
      auto it = got.find({l, pl});
      if (it == got.end() || it->second != PlanDigest(want[l], pl)) {
        failed += want[l].space().num_points();
      }
    }
  }
  return failed;
}

/// sharded_progressive: rounds of [fresh cache → StudyEnvironment::Create →
/// progressive sharded fill → flush → warm rerun processes for
/// kRerunSeconds]. The fill is both the timed sweep and, with Create and
/// the flush, the set-up of the reruns.
bool RunShardedProgressive(const Config& cfg, Report* r, Samples* s) {
  namespace fs = std::filesystem;
  const int64_t start = NowNs();
  double last_round = 0;
  int round = 0;
  do {
    const int64_t round_start = NowNs();
    const std::string dir = cfg.out_dir + "/round";
    std::error_code ec;
    fs::remove_all(dir, ec);
    const std::string cache_dir = dir + "/cache";

    const int64_t t0 = NowNs();
    auto created = StudyEnvironment::Create(StudyOptionsFor(cfg));
    if (!created.ok()) {
      return Fail(created.status(), "StudyEnvironment::Create");
    }
    auto env = std::move(created).value();
    CellResultCache cache;
    cache.Open(cache_dir);
    SweepRequest req = RequestFor(cfg, dir + "/tiles");
    req.cell_cache = &cache;
    int64_t fill_start = 0;
    double first_snapshot = -1;
    req.progressive.on_snapshot = [&](size_t,
                                      const std::vector<RobustnessMap>&) {
      if (first_snapshot < 0) first_snapshot = SecondsSince(fill_start);
    };
    fill_start = NowNs();
    auto fill = SweepEngine::Run(env->ctx(), env->executor(), req);
    const double fill_wall = SecondsSince(fill_start);
    if (!fill.ok()) return Fail(fill.status(), "progressive fill");
    Status flushed = cache.WriteCellCacheFile();
    if (!flushed.ok()) return Fail(flushed, "cache flush");
    s->setup_s.push_back(SecondsSince(t0));
    s->sweep_s.push_back(fill_wall);
    s->first_snapshot_s.push_back(first_snapshot);
    const auto& layers = fill.value().layers;
    r->attempted += LayerCells(layers);
    r->failed += CheckSweep(cfg, layers, true);
    if (cfg.write_golden && !WriteGolden(cfg, layers)) return false;

    // Warm reruns: the same request against the re-opened flushed cache,
    // each a whole process, as a CI job re-rendering the map runs it.
    const int64_t reruns_start = NowNs();
    do {
      double wall = 0;
      r->attempted += LayerCells(layers);
      r->failed += SpawnRerun(cfg, dir, layers, &wall);
      s->rerun_s.push_back(wall);
    } while (SecondsSince(reruns_start) < kRerunSeconds);
    fs::remove_all(dir, ec);
    last_round = SecondsSince(round_start);
    ++round;
  } while (round < 2 || AnotherFits(cfg, start, last_round));
  return true;
}

}  // namespace

int RunRerunChild(const Config& cfg) {
  auto created = StudyEnvironment::Create(StudyOptionsFor(cfg));
  if (!created.ok()) {
    Fail(created.status(), "StudyEnvironment::Create");
    return 1;
  }
  auto env = std::move(created).value();
  // Telemetry shows whether the map came from the cache. A damaged or stale
  // cache opens empty, and the rerun then measures cells and misses.
  SweepTelemetry& telemetry = SweepTelemetry::Get();
  telemetry.Enable();
  CellResultCache cache;
  cache.Open(cfg.rerun_cache);
  SweepRequest req = RequestFor(cfg, cfg.out_dir + "/rerun_tiles");
  req.cell_cache = &cache;
  auto out = SweepEngine::Run(env->ctx(), env->executor(), req);
  if (!out.ok()) {
    Fail(out.status(), "warm rerun");
    return 1;
  }
  const auto& layers = out.value().layers;
  const auto counters = telemetry.Counters();
  auto counter = [&](const char* name) -> uint64_t {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  // Each progressive level looks its lattice up, so the hits exceed the
  // map's cells; none may miss and none may be measured.
  const uint64_t measured = counter("sweep.cells_measured");
  const uint64_t hits = counter("cache.hits");
  const uint64_t misses = counter("cache.misses");
  if (measured != 0 || misses != 0 || hits < LayerCells(layers)) {
    std::fprintf(stderr,
                 "mapbench: warm rerun measured %llu cells, with %llu cache "
                 "hits and %llu misses for %llu cells\n",
                 static_cast<unsigned long long>(measured),
                 static_cast<unsigned long long>(hits),
                 static_cast<unsigned long long>(misses),
                 static_cast<unsigned long long>(LayerCells(layers)));
    return 1;
  }
  for (size_t l = 0; l < layers.size(); ++l) {
    for (size_t pl = 0; pl < layers[l].num_plans(); ++pl) {
      std::printf("%zu %zu %016llx\n", l, pl,
                  static_cast<unsigned long long>(PlanDigest(layers[l], pl)));
    }
  }
  return 0;
}

Report RunEndToEnd(const Config& cfg) {
  Report r;
  Samples s;
  const bool ok = cfg.workload == Workload::kShardedProgressive
                      ? RunShardedProgressive(cfg, &r, &s)
                      : RunDirect(cfg, &r, &s);
  if (!ok) return Failed(r);
  std::vector<double> rates;
  for (double w : s.sweep_s) {
    rates.push_back(static_cast<double>(MeasuredCells(cfg)) / w);
  }
  r.Add("cells_per_s", Median(rates), "1/s");
  r.Add("setup_s", Median(s.setup_s), "s");
  r.Add("max_rss_mb", PeakRssMb(), "MiB");
  r.Add("first_snapshot_ms", 1000 * Median(s.first_snapshot_s), "ms");
  r.Add("rerun_ms_p50", 1000 * Median(s.rerun_s), "ms");

  std::printf("samples: %zu set-ups, %zu timed sweeps, %zu reruns\n",
              s.setup_s.size(), s.sweep_s.size(), s.rerun_s.size());
  // A tail percentile is reported only with at least ten samples beyond it.
  const size_t beyond_p90 = s.rerun_s.size() / 10;
  if (beyond_p90 >= 10) {
    std::printf("rerun_ms_p90: %.3f ms (%zu reruns, %zu beyond)\n",
                1000 * Quantile(s.rerun_s, 0.9), s.rerun_s.size(),
                beyond_p90);
  } else {
    std::printf("rerun_ms_p90: not reported (%zu reruns, needs 100)\n",
                s.rerun_s.size());
  }
  return r;
}

}  // namespace mapbench

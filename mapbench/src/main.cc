// mapbench: the repository benchmark's program.
//
//   mapbench --workload cold_map|warm_pool|sharded_progressive
//            --seed N --seconds S --trace 0|1 --out DIR --golden FILE
//            [--write-golden]
//   mapbench --workload sharded_progressive ... --rerun CACHE_DIR
//
// Untraced (--trace 0) runs report the end-to-end metrics; traced runs the
// per-layer ledger. Human-readable lines go first; the last line of stdout
// is one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --rerun the process is one warm rerun, which sharded_progressive runs
// spawn (see RunRerunChild).
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using mapbench::Config;
using mapbench::Workload;

/// The CPUs this process may run on (what `nproc` prints).
unsigned HardwareThreads() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "mapbench: %s\nusage: mapbench --workload "
               "cold_map|warm_pool|sharded_progressive --seed N --seconds S "
               "--trace 0|1 --out DIR --golden FILE [--write-golden]\n",
               msg);
  return 2;
}

/// Parses a whole non-negative decimal number; false on anything else.
bool ParseUint(const char* s, unsigned long long* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return *end == '\0' && s[0] != '-';
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string workload;
  unsigned long long seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    unsigned long long n = 0;
    if (flag == "--write-golden") {
      cfg.write_golden = true;
      continue;
    }
    if (value == nullptr) return Usage(("missing value for " + flag).c_str());
    ++i;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--out") {
      cfg.out_dir = value;
    } else if (flag == "--golden") {
      cfg.golden_path = value;
    } else if (flag == "--rerun") {
      cfg.rerun_cache = value;
    } else if (!ParseUint(value, &n)) {
      return Usage((flag + " needs a whole number").c_str());
    } else if (flag == "--seed") {
      cfg.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = n;
    } else if (flag == "--trace") {
      trace = n;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload == "cold_map") {
    cfg.workload = Workload::kColdMap;
  } else if (workload == "warm_pool") {
    cfg.workload = Workload::kWarmPool;
  } else if (workload == "sharded_progressive") {
    cfg.workload = Workload::kShardedProgressive;
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  cfg.name = workload;
  if (!have_seed || seconds == 0 || trace > 1 || cfg.out_dir.empty() ||
      cfg.golden_path.empty()) {
    return Usage("--seed, --seconds (>0), --trace 0|1, --out and --golden "
                 "are required");
  }
  cfg.seconds = static_cast<double>(seconds);
  cfg.trace = trace == 1;

  // Concurrency guard: min(4, CPUs) threads and worker processes, so no
  // workload oversubscribes the machine.
  cfg.hardware_threads = HardwareThreads();
  cfg.threads = std::min(4u, cfg.hardware_threads);
  cfg.workers = cfg.threads;

  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  if (ec) return Usage(("cannot create " + cfg.out_dir).c_str());
  cfg.exe = std::filesystem::read_symlink("/proc/self/exe", ec).string();
  if (ec) return Usage("cannot resolve /proc/self/exe");
  if (!cfg.rerun_cache.empty()) {
    if (cfg.workload != Workload::kShardedProgressive) {
      return Usage("--rerun needs --workload sharded_progressive");
    }
    return mapbench::RunRerunChild(cfg);
  }

  std::printf("workload %s seed %llu seconds %.0f trace %d: hardware_threads "
              "%u, threads %u, workers %u\n",
              cfg.name.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.hardware_threads,
              cfg.threads, cfg.workers);
  std::fflush(stdout);

  mapbench::Report report =
      cfg.trace ? mapbench::RunLedger(cfg) : mapbench::RunEndToEnd(cfg);

  const double failed_share =
      report.attempted == 0
          ? 1.0
          : static_cast<double>(report.failed) /
                static_cast<double>(report.attempted);
  std::printf("failed_share: %.6g (%llu of %llu cells)\n", failed_share,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const mapbench::Metric& m : report.metrics) {
    std::printf("%-24s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.failed == 0 && report.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const mapbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

// Benchmark binary for the shear-warp pipeline.
//
//   swbench --workload rotate|interactive|coldmix --seed N --seconds S
//           --trace 0|1 [--frames N] [--setups R] [--cold-opens K]
//           [--source-id ID]
//
// An untraced run (--trace 0) measures the workload's end-to-end metrics.
// A traced run (--trace 1) measures the named workload's per-layer metrics
// and prints its ledger; layers the workload does not exercise are filled
// from short traced runs of the workloads that do (see README.md). Human
// tables go to stdout, followed by one line
//
//   SWBENCH_RESULT {"correct": ..., "attempted": ..., "failed": ...,
//                   "metrics": {...}, "counts": {...}, "fingerprint": {...}}
//
// which swbench/run.py checks against BENCHMARK.json. Exits 1 when any
// output check failed, 2 on bad arguments, 3 on an unoptimised build.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "workloads.hpp"

namespace {

using namespace swbench;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimised = true;
#else
constexpr bool kOptimised = false;
#endif

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Aggregate CPU ticks from /proc/stat: {steal, total}. Steal is time the
// hypervisor ran something else on this machine's vCPUs, the usual cause of
// a whole run that reads slow on a shared host.
std::pair<uint64_t, uint64_t> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t v = 0, steal = 0, total = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

RunResult run_workload(const Config& cfg) {
  if (cfg.workload == "rotate") return run_rotate(cfg);
  if (cfg.workload == "interactive") return run_interactive(cfg);
  return run_coldmix(cfg);
}

// Per-layer metrics the named workload does not produce come from short
// traced runs of the workloads that own those layers: rotate owns the
// kernel and frame layers, interactive the per-frame net costs (its
// measured phase builds no volume), coldmix the cluster layer. Each owner
// is run when its marker metric is missing.
void fill_layers(const Config& cfg, RunResult* out) {
  static const char* const kOwners[] = {"rotate", "interactive", "coldmix"};
  static const char* const kMarker[] = {"core.composite_ms", "net.allocs_per_frame",
                                        "cluster.proxy_ms_p50"};
  for (int i = 0; i < 3; ++i) {
    if (cfg.workload == kOwners[i] || out->per_layer.count(kMarker[i])) continue;
    Config fill = cfg;
    fill.workload = kOwners[i];
    fill.seconds = 6.0;
    fill.setups = 1;
    fill.cold_opens = 5;
    std::printf("\n--- short traced %s run for the layers %s lacks ---\n", kOwners[i],
                cfg.workload.c_str());
    RunResult r = run_workload(fill);
    out->attempted += r.attempted;
    out->failed += r.failed;
    out->errors.insert(out->errors.end(), r.errors.begin(), r.errors.end());
    for (const auto& [name, m] : r.per_layer) out->per_layer.emplace(name, m);
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "swbench: %s\nusage: swbench --workload rotate|interactive|coldmix --seed N "
               "--seconds S --trace 0|1 [--frames N] [--setups R] [--cold-opens K] "
               "[--source-id ID]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--frames") {
      cfg.frames = std::atoi(value.c_str());
    } else if (flag == "--setups") {
      cfg.setups = std::atoi(value.c_str());
    } else if (flag == "--cold-opens") {
      cfg.cold_opens = std::atoi(value.c_str());
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') return usage(("bad value for " + flag).c_str());
  }
  if (cfg.workload != "rotate" && cfg.workload != "interactive" && cfg.workload != "coldmix") {
    return usage("--workload must be rotate, interactive or coldmix");
  }
  if (!(cfg.seconds > 0) || cfg.setups < 1 || cfg.cold_opens < 1 || cfg.frames < 0) {
    return usage("--seconds, --setups and --cold-opens must be positive");
  }
  if (!kOptimised) {
    std::fprintf(stderr, "swbench: refusing to measure a non-optimised build (%s)\n",
                 SWBENCH_BUILD_TYPE);
    return 3;
  }
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  cfg.workers = std::max(1, nproc - 1);
  if (cfg.trace) cfg.setups = 1;  // set-up time is an untraced metric

  const std::string fingerprint =
      std::string("{\"nproc\": ") + std::to_string(nproc) +
      ", \"cpu\": " + json_string(cpu_model()) +
      ", \"compiler\": " + json_string(SWBENCH_COMPILER) +
      ", \"build_type\": " + json_string(SWBENCH_BUILD_TYPE) +
      ", \"source\": " + json_string(source_id) +
      ", \"workload\": " + json_string(cfg.workload) +
      ", \"seed\": " + std::to_string(cfg.seed) +
      ", \"render_workers\": " + std::to_string(cfg.workers) + "}";
  char bound[48];
  if (cfg.frames > 0) {
    std::snprintf(bound, sizeof(bound), "%d frames", cfg.frames);
  } else {
    std::snprintf(bound, sizeof(bound), "%.3g s", cfg.seconds);
  }
  std::printf("swbench %s seed %llu, %s, %s\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.trace ? "traced" : "untraced", bound);
  std::printf("host: %s\n", fingerprint.c_str());

  RunResult result;
  const auto ticks0 = cpu_ticks();
  try {
    result = run_workload(cfg);
    if (cfg.trace) {
      probe_phantom_prepare(cfg, &result);
      fill_layers(cfg, &result);
    } else {
      result.put("peak_rss_mb", peak_rss_mib(), "MiB");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swbench: %s\n", e.what());
    return 1;
  }

  const auto ticks1 = cpu_ticks();
  if (ticks1.second > ticks0.second) {
    std::printf("\n  host cpu steal during the run: %.1f%% of CPU time\n",
                100.0 * static_cast<double>(ticks1.first - ticks0.first) /
                    static_cast<double>(ticks1.second - ticks0.second));
  }
  const auto& metrics = cfg.trace ? result.per_layer : result.end_to_end;
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) result.fail("metric " + name + " is not finite");
  }
  const double failed_frac = static_cast<double>(result.failed) /
                             static_cast<double>(std::max<uint64_t>(1, result.attempted));
  std::printf("\n  failed_frac %.6f ratio (%llu failed of %llu attempted)\n", failed_frac,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const std::string& e : result.errors) std::printf("  CHECK FAILED: %s\n", e.c_str());
  std::printf("\n  %-30s %16s  %s\n", "metric", "value", "unit");
  for (const auto& [name, m] : metrics) {
    std::printf("  %-30s %16.6g  %s\n", name.c_str(), m.value, m.unit.c_str());
  }

  const bool correct = result.failed == 0 && result.attempted > 0;
  std::string line = "SWBENCH_RESULT {\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) continue;
    line += (first ? "" : ", ") + json_string(name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  line += "}, \"counts\": {";
  first = true;
  for (const auto& [name, n] : result.counts) {
    line += (first ? "" : ", ") + json_string(name) + ": " + std::to_string(n);
    first = false;
  }
  line += "}, \"fingerprint\": " + fingerprint + "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

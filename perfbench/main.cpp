// perfbench: run one workload of the benchmark and print its result.
//
//   perfbench --workload <eager_ring|lossy_ring|bulk_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--git-sha <sha>]
//   perfbench --list-metrics
//
// The second-to-last stdout line is the run's record: host and build
// fingerprint, the deterministic outputs (digest, virtual end time, exact
// counters) and the raw samples. The last line is the result:
// {"correct", "attempted", "failed", "metrics"}, with the end-to-end
// metrics untraced and the per-layer metrics traced. Exits 1 when any
// message failed or the watchdog tripped, 2 on bad arguments.
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "harness.hpp"

namespace {

using namespace perfbench;

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string compilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// JSON string literal (the fingerprint strings are plain ASCII).
std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string listJson(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + fmtDouble(v[i]);
  }
  return out + "]";
}

void printMetricList() {
  std::cout << "[";
  bool first = true;
  for (const MetricDecl& d : metricTable()) {
    std::cout << (first ? "" : ", ") << "{\"name\": " << quote(d.name)
              << ", \"unit\": " << quote(d.unit) << ", \"better\": "
              << quote(d.better == Better::Higher ? "higher" : "lower")
              << ", \"scope\": "
              << quote(d.scope == Scope::EndToEnd ? "end_to_end" : "per_layer")
              << "}";
    first = false;
  }
  std::cout << "]\n";
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <eager_ring|lossy_ring|"
               "bulk_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--git-sha <sha>]\n       perfbench --list-metrics\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_arg, git_sha = "unknown";
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      printMetricList();
      return 0;
    }
    if (i + 1 >= argc) return usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        workload_arg = v;
      } else if (a == "--seed") {
        seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        seconds = std::stod(v);
      } else if (a == "--trace") {
        trace = std::stoi(v);
      } else if (a == "--git-sha") {
        git_sha = v;
      } else {
        return usage("unknown argument " + a);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + a + ": " + v);
    }
  }
  const auto workload = parseWorkload(workload_arg);
  if (!workload) return usage("unknown workload '" + workload_arg + "'");
  if (!have_seed || !(seconds > 0 && seconds <= 600) ||
      (trace != 0 && trace != 1)) {
    return usage("--seed, --seconds (0, 600] and --trace 0|1 are required");
  }

  const Config cfg = benchConfig(*workload, seed, seconds);
  RunResult res;
  std::string error;
  try {
    res = runBenchmark(cfg, trace == 1);
  } catch (const std::exception& e) {
    error = e.what();
  }
  const bool correct =
      error.empty() && !res.watchdog_tripped && res.tally.failed() == 0;

  std::cout << "perfbench " << workloadName(*workload) << " seed=" << seed
            << " trace=" << trace << ": " << res.tally.attempted
            << " messages checked, " << res.tally.failed() << " failed ("
            << res.tally.missing << " missing, " << res.tally.stale
            << " stale, " << res.tally.misdelivered << " misdelivered, "
            << res.tally.corrupted << " corrupted)"
            << (res.watchdog_tripped ? ", watchdog tripped" : "")
            << (error.empty() ? "" : ", error: " + error) << "\n";

  std::ostringstream rec;
  rec << "{\"record\": {\"workload\": " << quote(workloadName(*workload))
      << ", \"seed\": " << seed << ", \"trace\": " << trace
      << ", \"host\": {\"cpu\": " << quote(cpuModel())
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << quote(compilerId())
      << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
      << ", \"git_sha\": " << quote(git_sha) << "}"
      << ", \"shape\": {\"ranks\": " << cfg.ranks()
      << ", \"window\": " << cfg.window
      << ", \"units_per_round\": " << cfg.units_per_round
      << ", \"rounds\": " << cfg.rounds
      << ", \"setup_reps\": " << cfg.setup_reps << "}";
  if (correct) {
    std::vector<double> setups;
    for (const SetupTimes& t : res.setups) setups.push_back(t.total());
    rec << ", \"deterministic\": {\"digest\": "
        << quote(std::to_string(res.digest)) << ", \"vend_ns\": " << res.vend
        << ", \"vspan_ns\": " << res.vspan << ", \"msgs\": " << res.msgs
        << ", \"attempted\": " << res.tally.attempted
        << ", \"vlat_samples\": "
        << fmtDouble(res.metrics.get("vlat.samples"))
        << ", \"vlat_p50_us\": " << fmtDouble(res.metrics.get("vlat_p50_us"))
        << ", \"vlat_p99_us\": " << fmtDouble(res.metrics.get("vlat_p99_us"))
        << ", \"vgoodput_GBps\": "
        << fmtDouble(res.metrics.get("vgoodput_GBps")) << ", \"counters\": {";
    bool first = true;
    for (const auto& [k, v] : res.counters) {
      rec << (first ? "" : ", ") << quote(k) << ": " << v;
      first = false;
    }
    std::vector<double> vspans(res.round_vspans.begin(),
                               res.round_vspans.end());
    rec << "}}, \"round_vspan_ns\": " << listJson(vspans)
        << ", \"round_msgs_per_s\": " << listJson(res.round_rates)
        << ", \"traced_round_msgs_per_s\": "
        << listJson(res.traced_round_rates)
        << ", \"setup_s\": " << listJson(setups);
  }
  rec << "}}";
  std::cout << rec.str() << "\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(1, res.tally.attempted)
            << ", \"failed\": " << res.tally.failed() << ", \"metrics\": "
            << (correct ? res.metrics.json(trace == 1 ? Scope::PerLayer
                                                      : Scope::EndToEnd)
                        : std::string("{}"))
            << "}" << std::endl;
  return correct ? 0 : 1;
}

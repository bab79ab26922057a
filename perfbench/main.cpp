// perfbench: end-to-end and per-layer benchmark of the HPNN trusted device,
// serving daemon and device cold start.
//
//   perfbench --workload <serve-open|serve-wide>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--inject-fault <0|1>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes a Chrome trace and a self-time table into --work-dir). The
// last stdout line is one JSON object: correct, attempted, failed, metrics.
// Exit code 0 when every answer was correct, 1 when the oracle failed the
// run, 2 on bad arguments or a build that is not optimized.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/threadpool.hpp"
#include "tensor/backend.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
const std::vector<MetricSpec> kEndToEnd = {
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"coldstart.p50_ms", "ms"},
    {"owner.synth_ms", "ms"},
    {"owner.train_ms", "ms"},
    {"owner.calibrate_ms", "ms"},
    {"zoo.publish_ms", "ms"},
    {"zoo.fetch_view_us", "us"},
    {"zoo.materialize_us", "us"},
    {"device.provision_us", "us"},
    {"device.load_model_us", "us"},
    {"device.self_test_us", "us"},
    {"device.first_infer_us", "us"},
    {"device.teardown_us", "us"},
    {"device.infer_p50_us", "us"},
    {"device.infer_p99_us", "us"},
    {"device.macs_per_image", "count"},
    {"device.gmacs", "Gmac/s"},
    {"device.attest_agreement", "fraction"},
    {"hw.quantize_us", "us"},
    {"tensor.im2col_us", "us"},
    {"hw.mmu_matmul_us", "us"},
    {"hw.dequantize_us", "us"},
    {"tensor.maxpool_us", "us"},
    {"device.unattributed_us", "us"},
    {"device.b1_infer_p50_us", "us"},
    {"device.b1_infer_p99_us", "us"},
    {"device.b1_replay_us", "us"},
    {"device.b1_unattributed_us", "us"},
    {"daemon.queue_wait_p50_ms", "ms"},
    {"daemon.queue_wait_p99_ms", "ms"},
    {"daemon.service_p50_ms", "ms"},
    {"daemon.service_p99_ms", "ms"},
    {"daemon.batch_rows_mean", "rows"},
    {"daemon.submit_us", "us"},
    {"daemon.shed", "count"},
    {"daemon.queue_full", "count"},
    {"daemon.expired", "count"},
    {"supervisor.attempts_per_request", "count"},
    {"latency_p90_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"gen.lag_p99_ms", "ms"},
    {"gen.lag_max_ms", "ms"},
    {"host.ref_loop_ms", "ms"},
    {"trace.overhead_frac", "fraction"},
    {"run.mean_rate_per_s", "1/s"},
    {"run.rss_growth_mb", "MiB"},
};

/// Set-up is repeated this many times per untraced run; setup_s is the
/// median.
constexpr int kSetups = 5;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--work-dir <dir>] [--inject-fault <0|1>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (flag == "--inject-fault") {
        o.inject_fault = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  if (!(o.seconds >= 0.5 && o.seconds <= 120.0)) {
    usage("--seconds must be within [0.5, 120]");
  }
  return o;
}

bool optimized_build() {
#if defined(__OPTIMIZE__)
  const std::string type = PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#else
  return false;
#endif
}

/// A fixed single-threaded integer/float loop: a diagnostic of how fast
/// this host ran during the run. Never used to normalise a metric.
double host_ref_loop_ms() {
  std::vector<double> reps;
  volatile double sink = 0.0;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 88172645463325252ULL + static_cast<std::uint64_t>(r);
    double acc = 0.0;
    for (int i = 0; i < 2'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x & 1023U) * 1e-3;
    }
    sink = sink + acc;
    reps.push_back(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
  }
  return median(reps);
}

/// Resident set size now, from /proc/self/statm; 0 where it is missing.
double current_rss_mib() {
  std::ifstream statm("/proc/self/statm");
  double pages_total = 0.0;
  double pages_resident = 0.0;
  if (!(statm >> pages_total >> pages_resident)) {
    return 0.0;
  }
  return pages_resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double sum_ms(Tracer& tracer, const char* name) {
  double total = 0.0;
  for (double us : tracer.durations_us(name)) {
    total += us;
  }
  return total / 1e3;
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<MetricSpec>& specs,
                  const MetricMap& values) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    auto it = values.find(spec.name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      v = 0.0;
    }
    os << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void write_layer_table(const std::string& path, const std::string& workload,
                       Tracer& tracer, const MetricMap& layer) {
  std::ofstream os(path);
  os.precision(6);
  os << "{\"workload\": \"" << workload << "\", \"self_time\": [";
  bool first = true;
  for (const auto& row : tracer.self_time_table()) {
    os << (first ? "\n" : ",\n") << "  {\"span\": \"" << row.name
       << "\", \"count\": " << row.count << ", \"total_us\": " << row.total_us
       << ", \"self_us\": " << row.self_us << "}";
    first = false;
  }
  os << "\n], \"metrics\": {";
  first = true;
  for (const auto& [name, value] : layer) {
    os << (first ? "\n" : ",\n") << "  \"" << name << "\": " << value;
    first = false;
  }
  os << "\n}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (!optimized_build()) {
    std::cerr << "perfbench: refusing to report from a "
              << PERFBENCH_BUILD_TYPE << " build without optimization\n";
    return 2;
  }
  std::unique_ptr<Workload> workload;
  try {
    workload = make_workload(options);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  std::filesystem::create_directories(options.work_dir);

  const char* env_threads = std::getenv("HPNN_THREADS");
  const double ref_loop_ms = host_ref_loop_ms();
  std::cout << "context: nproc=" << std::thread::hardware_concurrency()
            << " backend=" << hpnn::ops::backend().name()
            << " HPNN_THREADS=" << (env_threads ? env_threads : "unset")
            << " build=" << PERFBENCH_BUILD_TYPE
            << " workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0)
            << " host.ref_loop_ms=" << ref_loop_ms << std::endl;

  Tracer off(false);
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::int64_t> failures;
  MetricMap metrics;
  try {
    if (!options.trace) {
      std::vector<double> setup_s;
      for (int i = 0; i < kSetups; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        workload->setup(off);
        setup_s.push_back(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
      }
      const std::string why = workload->setup_failure();
      if (!why.empty()) {
        std::cout << "check failed: " << why << std::endl;
        correct = false;
      }
      workload->warmup();
      const Phase phase = workload->run(options.seconds, off);
      attempted = phase.attempted;
      failed = phase.failed;
      failures = phase.failures;
      metrics["throughput_per_s"] = median(phase.rates);
      metrics["latency_p50_ms"] = median(phase.latency_ms);
      metrics["setup_s"] = median(setup_s);
      metrics["peak_rss_mb"] = peak_rss_mib();
      std::cout << "samples: " << phase.latency_ms.size()
                << " operations timed, " << phase.rates.size()
                << " throughput rates, " << kSetups
                << " set-ups; measured on " << hpnn::core::thread_count()
                << " pool lane(s)" << std::endl;
    } else {
      Tracer tracer(true);
      workload->setup(tracer);
      const std::string why = workload->setup_failure();
      if (!why.empty()) {
        std::cout << "check failed: " << why << std::endl;
        correct = false;
      }
      workload->warmup();
      const double rss_before_mib = current_rss_mib();
      const Phase base = workload->run(options.seconds / 2, off);
      // What the measured (untraced) phase adds to the resident set; the
      // end-to-end peak_rss_mb is set by set-up instead.
      metrics["run.rss_growth_mb"] = current_rss_mib() - rss_before_mib;
      metrics["run.mean_rate_per_s"] = base.work / base.seconds;
      const Phase traced = workload->run(options.seconds / 2, tracer);
      attempted = base.attempted + traced.attempted;
      failed = base.failed + traced.failed;
      failures = base.failures;
      for (const auto& [cause, count] : traced.failures) {
        failures[cause] += count;
      }
      workload->layer_metrics(traced, tracer, metrics);
      metrics["owner.synth_ms"] = sum_ms(tracer, "owner.synth");
      metrics["owner.train_ms"] = sum_ms(tracer, "owner.train");
      metrics["owner.calibrate_ms"] = sum_ms(tracer, "owner.calibrate");
      metrics["zoo.publish_ms"] = sum_ms(tracer, "zoo.publish");
      metrics["latency_p90_ms"] = percentile(traced.latency_ms, 0.90);
      metrics["latency_p99_ms"] = percentile(traced.latency_ms, 0.99);
      metrics["host.ref_loop_ms"] = ref_loop_ms;
      // Mean operation latency, traced against untraced: throughput slices
      // are too coarse to resolve a few percent.
      metrics["trace.overhead_frac"] =
          mean(traced.latency_ms) / mean(base.latency_ms) - 1.0;

      const std::string stem = options.work_dir + "/" + options.workload;
      tracer.write_chrome_json(stem + ".trace.json");
      write_layer_table(stem + ".layers.json", options.workload, tracer,
                        metrics);
      std::cout << "self time per span (" << tracer.size() << " spans; "
                << stem << ".trace.json):" << std::endl;
      for (const auto& row : tracer.self_time_table()) {
        std::printf("  %-26s %8zu calls %14.1f us total %14.1f us self\n",
                    row.name.c_str(), row.count, row.total_us, row.self_us);
      }
      std::fflush(stdout);
    }
  } catch (const std::exception& e) {
    std::cout << "error: " << e.what() << std::endl;
    correct = false;
    failed = std::max<std::int64_t>(failed, 1);
  }
  for (const auto& [cause, count] : failures) {
    std::cout << "failed: " << count << " x " << cause << std::endl;
  }
  correct = correct && failed == 0 && attempted > 0;
  attempted = std::max<std::int64_t>(attempted, 1);
  print_result(correct, attempted, failed,
               options.trace ? kPerLayer : kEndToEnd, metrics);
  return correct ? 0 : 1;
}

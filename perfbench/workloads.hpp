// The benchmark's workloads over one shared artifact.
//
//   serve-open  open loop, seeded Poisson arrivals into a threaded
//               ServeDaemon (4 tenants, 2 workers, 2 witness replicas)
//   serve-wide  the same daemon and image rate as 4-image requests (its
//               traced run adds device cold starts from the ModelZoo to a
//               first correct answer and steady-state device passes at
//               batch 32 and batch 1)
//
// A workload is set up (shared artifact + its own state), warmed up, then
// runs measured phases. Every answer is checked against the oracle; a
// wrong answer, a refusal or an error counts as a failed operation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Attaches hw::FaultInjector (accumulator bit 30, rate 1.0) to every
  /// device under test; the oracle must then fail the run.
  bool inject_fault = false;
  std::string work_dir = ".";
};

/// What one measured phase observed.
struct Phase {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// failed, split by cause ("wrong", "shed", an error message, ...).
  std::map<std::string, std::int64_t> failures;
  double seconds = 0.0;
  /// Per-operation latency of every completed operation, ms.
  std::vector<double> latency_ms;
  /// Work completed correctly over the phase.
  double work = 0.0;
  /// Work completed correctly per second: per operation for the closed
  /// loops, per equal slice of the phase for the open loop. The
  /// throughput metric is their median.
  std::vector<double> rates;
};

using MetricMap = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the shared artifact and the workload's own serving state.
  virtual void setup(Tracer& tracer) = 0;
  /// Set-up checks that are not per-operation: device accuracy floor on
  /// held-out images and the attestation challenge. Empty when they pass.
  virtual std::string setup_failure() const = 0;
  /// Runs the workload unmeasured until lazy caches are filled.
  virtual void warmup() = 0;
  virtual Phase run(double seconds, Tracer& tracer) = 0;
  /// Per-layer metrics of the phase just traced (only the layers this
  /// workload exercises; the caller fills the rest with zeros).
  virtual void layer_metrics(const Phase& phase, Tracer& tracer,
                             MetricMap& out) = 0;
};

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const Options& options);

}  // namespace perfbench

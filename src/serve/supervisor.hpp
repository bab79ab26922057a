// ServingSupervisor: fault-tolerant request orchestration over a
// DevicePool.
//
// The paper's device fails closed on a detected integrity fault; a serving
// fleet must additionally *stay up* while that happens. The supervisor
// turns per-device failures into pool-level resilience:
//
//   request -> [maintenance sweep] -> deadline check -> select replica
//           -> integrity pre-check -> [lease witness, post its infer to a
//              lane] -> infer -> integrity post-check
//           -> verify (echo / witness + attestation arbitration)
//           -> success, or: quarantine/penalize, seeded backoff, retry.
//
// Answer verification exploits the HPNN determinism contract: two healthy
// replicas sealed with the same diversified model key are bit-identical
// executors, so a single differing logit bit proves one of them is faulty,
// and replaying the artifact's attestation challenge on both identifies
// which. Deterministic datapath corruption (e.g. a stuck quantization-scale
// register) survives an echo on the same device but cannot survive a
// witness — which is why kWitness is the default. The witness runs side by
// side with the primary on one of the supervisor's execution lanes; every
// decision taken after both finish is the serial protocol's.
//
// Every run is reproducible: backoff jitter comes from a seeded Rng, and
// all timing flows through the injected Clock (SimulatedClock in tests and
// chaos campaigns).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "serve/lanes.hpp"
#include "serve/policy.hpp"
#include "serve/pool.hpp"

namespace hpnn::serve {

struct SupervisorConfig {
  std::size_t replicas = 4;
  RetryPolicy retry;
  DegradationPolicy degradation = DegradationPolicy::kDegradeToSubset;
  VerifyMode verify = VerifyMode::kWitness;
  /// Per-request latency budget in microseconds (0 = unbounded). Individual
  /// requests may override via RequestOptions.
  std::uint64_t default_deadline_us = 0;
  BreakerPolicy breaker;
  hw::DeviceConfig device;
  /// Seed of the backoff-jitter stream (fixed seed => reproducible retry
  /// timeline for a serial request sequence).
  std::uint64_t backoff_seed = 0x5e4e1ULL;
  /// Time source; null selects the process SteadyClock.
  core::Clock* clock = nullptr;
  /// Runs on every (re-)provisioned device (see ProvisionHook).
  ProvisionHook provision;
};

struct RequestOptions {
  /// Latency budget for this request (0 = use the config default).
  std::uint64_t deadline_us = 0;
};

struct RequestResult {
  Tensor logits;                      // [N, classes]
  std::vector<std::int64_t> classes;  // argmax per sample
  int attempts = 1;
  std::size_t replica = DevicePool::npos;  // replica that served the answer
  std::uint64_t latency_us = 0;            // includes retries and backoff
  /// True when part of the pool was unhealthy at completion time
  /// (DegradationPolicy::kDegradeToSubset serving on a subset).
  bool degraded = false;
};

class ServingSupervisor {
 public:
  /// Provisions `config.replicas` trusted devices from the owner's master
  /// key via keychain diversification and loads the published artifact.
  ServingSupervisor(const obf::HpnnKey& master_key,
                    const std::string& model_id,
                    const obf::PublishedModel& artifact,
                    obf::AttestationChallenge challenge,
                    SupervisorConfig config = {});

  /// Serves one inference request (images [N, C, H, W]).
  ///
  /// Throws:
  ///   - ShapeError            — malformed input (caller bug, never retried)
  ///   - TimeoutError          — deadline exceeded (before or between
  ///                             attempts; carries elapsed/budget)
  ///   - DeviceUnavailableError— pool refused per the degradation policy
  ///                             (kFailClosed: any replica unhealthy;
  ///                             kRejectWithRetryAfter: none healthy, with
  ///                             a retry_after_us backpressure hint)
  ///   - RetryExhaustedError   — all attempts failed; carries the per-
  ///                             attempt cause history
  RequestResult submit(const Tensor& images, const RequestOptions& options = {});

  DevicePool& pool() { return pool_; }
  const DevicePool& pool() const { return pool_; }
  const SupervisorConfig& config() const { return config_; }
  core::Clock& clock() { return *clock_; }

 private:
  /// Outcome of one attempt: served logits or a cause string.
  struct Attempt {
    bool ok = false;
    Tensor logits;
    std::size_t replica = DevicePool::npos;
    std::string cause;
  };

  Attempt try_once(const Tensor& images);
  Attempt run_verified(DevicePool::Lease& primary, const Tensor& images);
  /// Leases a witness for `primary` whose key store is intact,
  /// quarantining peers that fail the check; invalid when none is free.
  DevicePool::Lease lease_witness(std::size_t primary);
  Attempt echo_check(DevicePool::Lease& primary, Tensor logits,
                     const Tensor& images);
  Attempt digest_check(DevicePool::Lease& primary, Tensor logits,
                       const Tensor& images);

  std::uint64_t next_backoff_us(int failed_attempts);

  SupervisorConfig config_;
  core::Clock* clock_;  // resolved before pool_ so the pool can borrow it
  DevicePool pool_;
  std::mutex backoff_mutex_;
  Rng backoff_rng_;
  // Runs witness inferences. A request holds at most one witness job and
  // each holds a replica lease, so one lane per replica is the ceiling.
  ExecutionLanes lanes_;
};

/// True when two logit tensors are bit-identical (shape and every float's
/// bit pattern). The cross-replica agreement predicate.
bool bitwise_equal(const Tensor& a, const Tensor& b);

}  // namespace hpnn::serve

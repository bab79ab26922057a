// Per-replica health gate: a circuit breaker with a quarantine tier.
//
// The classic closed/open/half-open breaker handles *transient* trouble
// (timeouts, stochastic datapath faults): trip after a run of failures,
// cool down, probe, readmit. HPNN adds a fourth, sticky state for
// *integrity* trouble: a KeyError or a failed attestation means the
// replica's key material or locked weights are corrupt, and no amount of
// waiting fixes that. Such replicas are quarantined and only return to
// service after the pool re-provisions them from the master key.
//
// The breaker is pure bookkeeping — it never touches a device and takes no
// locks. DevicePool guards each breaker with its pool mutex.
#pragma once

#include <cstdint>

namespace hpnn::serve {

enum class BreakerState : int {
  kClosed = 0,      ///< Healthy: admitting traffic.
  kHalfOpen = 1,    ///< Probe passed; trial traffic admitted.
  kOpen = 2,        ///< Tripped: no traffic until a probe passes.
  kQuarantined = 3  ///< Integrity failure: needs re-provisioning.
};

const char* breaker_state_name(BreakerState state);

struct BreakerPolicy {
  /// Consecutive request failures that trip kClosed -> kOpen.
  int failure_threshold = 3;
  /// Minimum time in kOpen before a maintenance probe is due.
  std::uint64_t open_cooldown_us = 2'000;
  /// Consecutive successes in kHalfOpen required to close again.
  int half_open_successes = 1;
  /// Failed probes tolerated in kOpen before escalating to quarantine
  /// (a replica that keeps failing self-test is treated as corrupt).
  int probe_failure_limit = 2;
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerPolicy policy = {}) : policy_(policy) {}

  BreakerState state() const { return state_; }

  /// True when the replica may serve requests (kClosed or kHalfOpen).
  bool admits() const {
    return state_ == BreakerState::kClosed || state_ == BreakerState::kHalfOpen;
  }

  /// Records a successful request attempt.
  void record_success();

  /// Records a failed request attempt at virtual time `now_us`.
  /// Returns true if this failure tripped the breaker (-> kOpen).
  bool record_failure(std::uint64_t now_us);

  /// Forces quarantine (integrity fault: KeyError / failed attestation).
  void quarantine();

  /// True when a maintenance action is due at `now_us`: a self-test probe
  /// (kOpen past cooldown) or a re-provision (kQuarantined).
  bool maintenance_due(std::uint64_t now_us) const;

  /// Earliest time maintenance becomes due, for retry-after hints.
  /// Returns `now_us` when already due or when the replica is healthy.
  std::uint64_t maintenance_due_at(std::uint64_t now_us) const;

  /// Records the outcome of a self-test probe while kOpen. A pass moves to
  /// kHalfOpen; repeated failures beyond probe_failure_limit escalate to
  /// kQuarantined (otherwise the cooldown restarts).
  void record_probe(bool passed, std::uint64_t now_us);

  /// Re-provisioning succeeded: back to kClosed with counters cleared.
  void reset();

 private:
  BreakerPolicy policy_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  int probe_failures_ = 0;
  std::uint64_t opened_at_us_ = 0;
};

}  // namespace hpnn::serve

// Time source abstraction shared by every subsystem with deadlines.
//
// Deadlines, breaker cooldowns, backoff sleeps, queue-wait budgets and
// token-bucket refills all go through a Clock so the chaos harness, the
// serving daemon and the unit tests can run on a SimulatedClock: sleeps
// advance a counter instead of blocking, which makes seeded campaigns both
// fast and bit-reproducible (wall time never enters the control flow).
// Wall-clock is injected only in the real daemon process.
#pragma once

#include <atomic>
#include <cstdint>

namespace hpnn::core {

/// Monotonic microsecond clock + sleep. Implementations must be safe to
/// call from multiple threads.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Microseconds since an arbitrary (per-clock) epoch. Monotonic.
  virtual std::uint64_t now_us() = 0;

  /// Blocks the caller for `us` microseconds (or advances simulated time).
  virtual void sleep_us(std::uint64_t us) = 0;
};

/// Wall-clock implementation on std::chrono::steady_clock.
class SteadyClock final : public Clock {
 public:
  /// Process-wide instance (the default clock of the serving layer).
  static SteadyClock& instance();

  std::uint64_t now_us() override;
  void sleep_us(std::uint64_t us) override;
};

/// Deterministic virtual time: now_us() is a counter, sleep_us() advances
/// it atomically without blocking. Two runs of the same seeded scenario see
/// the exact same timestamps, so breaker cooldowns, simulated batch service
/// times and deadlines fire identically.
class SimulatedClock final : public Clock {
 public:
  explicit SimulatedClock(std::uint64_t start_us = 0) : now_(start_us) {}

  std::uint64_t now_us() override {
    return now_.load(std::memory_order_relaxed);
  }
  void sleep_us(std::uint64_t us) override { advance(us); }

  /// Manually advances virtual time (tests stepping through cooldowns).
  void advance(std::uint64_t us) {
    now_.fetch_add(us, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> now_;
};

}  // namespace hpnn::core

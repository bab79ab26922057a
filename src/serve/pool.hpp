// A pool of TrustedDevice replicas provisioned from one owner master key.
//
// Every replica is sealed with the same keychain-diversified model key and
// schedule seed (hpnn/keychain.hpp), so healthy replicas are bit-identical
// executors of the published artifact — which is what lets the supervisor
// cross-check answers between replicas (VerifyMode::kWitness).
//
// Health is tracked per replica by a CircuitBreaker; sick replicas are
// routed around, probed with the artifact's attestation challenge during
// maintenance, and — when quarantined by an integrity fault — destroyed
// and re-provisioned from the master key (fresh SecureKeyStore, model
// reload, attestation replay). Maintenance work fans out on the
// deterministic threadpool.
//
// Locking protocol (deadlock-free by construction):
//   - pool mutex: breakers, round-robin cursor, maintenance claims, stats.
//     Never held while taking a replica mutex.
//   - one mutex per replica: serializes device use (infer / self_test /
//     injector attach) and the device swap during re-provisioning.
//     acquire() may block on at most one replica mutex while holding no
//     other lock; acquire_witness() only ever try-locks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/clock.hpp"
#include "hpnn/attestation.hpp"
#include "hpnn/model_io.hpp"
#include "hw/device.hpp"
#include "serve/breaker.hpp"

namespace hpnn::metrics {
class Gauge;
}

namespace hpnn::serve {

/// Called on every (re-)provisioned device after the model is loaded, with
/// the replica index and whether this is a re-provision. The chaos harness
/// uses it to attach fault injectors; production hooks could burn device
/// serial numbers or log license events.
using ProvisionHook =
    std::function<void(hw::TrustedDevice&, std::size_t, bool)>;

struct PoolConfig {
  std::size_t replicas = 4;
  hw::DeviceConfig device;
  BreakerPolicy breaker;
};

/// Plain (metrics-independent) transition accounting, exact under
/// concurrency: every field is mutated under the pool mutex.
struct PoolStats {
  std::uint64_t quarantines = 0;
  std::uint64_t reprovisions = 0;
  std::uint64_t reprovision_failures = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  std::uint64_t breaker_trips = 0;
};

class DevicePool {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Exclusive access to one replica's device. The replica cannot be
  /// swapped out (re-provisioned) while the lease is held.
  struct Lease {
    hw::TrustedDevice* device = nullptr;
    std::size_t index = npos;
    std::unique_lock<std::mutex> lock;

    bool valid() const { return device != nullptr; }
  };

  /// Provisions `config.replicas` devices from (master_key, model_id) via
  /// keychain diversification and loads the artifact into each. The hook
  /// (if any) runs after every load. Initial provisioning does not
  /// self-test: factory-fresh devices are trusted until serving or
  /// maintenance observes otherwise.
  DevicePool(const obf::HpnnKey& master_key, const std::string& model_id,
             const obf::PublishedModel& artifact,
             obf::AttestationChallenge challenge, PoolConfig config,
             core::Clock& clock, ProvisionHook hook = {});

  std::size_t size() const { return replicas_.size(); }
  const obf::AttestationChallenge& challenge() const { return challenge_; }

  /// Replicas currently admitting traffic (breaker closed or half-open).
  std::size_t admitting_count() const;
  BreakerState state(std::size_t index) const;
  std::uint64_t reprovision_count(std::size_t index) const;
  PoolStats stats() const;

  /// Leases an admitting replica, round-robin. Blocks on at most one
  /// replica mutex (while holding no other lock). Returns an invalid lease
  /// when no replica admits traffic.
  Lease acquire();

  /// Leases an admitting replica other than `exclude` for witness
  /// execution. Never blocks: only try-locks, so it is safe to call while
  /// holding another replica's lease. Invalid lease when none is free.
  Lease acquire_witness(std::size_t exclude);

  /// Records a successful request attempt on a replica.
  void report_success(std::size_t index);

  /// Records a failed request attempt; returns true if this tripped the
  /// replica's breaker (closed/half-open -> open).
  bool report_failure(std::size_t index);

  /// Forces a replica into quarantine (integrity fault detected). Idempotent
  /// per sick episode: re-quarantining an already quarantined replica does
  /// not double-count.
  void quarantine(std::size_t index);

  /// Runs due maintenance at virtual time `now_us`: attestation probes for
  /// tripped replicas past cooldown, re-provisioning for quarantined ones.
  /// Claims are exclusive, so concurrent callers never double-service a
  /// replica; the claimed work fans out on the threadpool.
  void run_maintenance(std::uint64_t now_us);

  /// Earliest future time at which maintenance could heal a sick replica
  /// (retry-after hint). Returns `now_us` when a replica is already due or
  /// the pool is fully healthy.
  std::uint64_t next_maintenance_due_us(std::uint64_t now_us) const;

  /// Runs `fn` on replica `index`'s device under its lease (tests / chaos
  /// fault attachment).
  void with_replica(std::size_t index,
                    const std::function<void(hw::TrustedDevice&)>& fn);

  DevicePool(const DevicePool&) = delete;
  DevicePool& operator=(const DevicePool&) = delete;

 private:
  struct Replica {
    std::unique_ptr<hw::TrustedDevice> device;
    CircuitBreaker breaker;
    std::unique_ptr<std::mutex> mutex;
    bool busy_maintenance = false;
    std::uint64_t reprovisions = 0;
  };

  std::unique_ptr<hw::TrustedDevice> build_device(std::size_t index,
                                                  bool reprovision);
  /// Admitting replica indices, rotated by the round-robin cursor.
  /// Caller must hold the pool mutex when `advance_cursor`.
  std::vector<std::size_t> admitting_rotation_locked(bool advance_cursor);
  void update_gauges_locked();

  obf::HpnnKey model_key_;
  std::uint64_t schedule_seed_ = 0;
  obf::PublishedModel artifact_;
  obf::AttestationChallenge challenge_;
  PoolConfig config_;
  core::Clock& clock_;
  ProvisionHook hook_;

  mutable std::mutex mutex_;
  std::vector<Replica> replicas_;
  std::size_t rr_cursor_ = 0;
  PoolStats stats_;
  // Lazily bound per-replica state gauges (null until metrics are enabled).
  std::vector<metrics::Gauge*> state_gauges_;
  metrics::Gauge* healthy_gauge_ = nullptr;
};

}  // namespace hpnn::serve

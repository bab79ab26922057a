// Secure on-chip key storage (TPM-style root of trust, refs [5],[25] of the
// paper).
//
// The HPNN key and the private scheduling seed are provisioned once (e.g. at
// device manufacturing / license issuance) and then sealed. After sealing,
// no public API can read them back — only the TrustedDevice's internal
// datapath wiring (modeled as friendship) can consume individual key bits.
#pragma once

#include <memory>

#include "core/sha256.hpp"
#include "hpnn/key.hpp"
#include "hpnn/scheduler.hpp"

namespace hpnn::hw {

class TrustedDevice;
class FaultInjector;

/// The key store's integrity digest: SHA-256 over the domain-separated
/// message "hpnn-keystore-v1:<key hex>:<seed>:<policy>" (decimal seed and
/// policy), built in a stack buffer so the check allocates nothing.
Sha256Digest keystore_digest(const obf::HpnnKey& key,
                             std::uint64_t schedule_seed,
                             obf::SchedulePolicy policy);

class SecureKeyStore {
 public:
  SecureKeyStore() = default;

  /// Writes the secrets. Throws KeyError if already provisioned or sealed
  /// (a sealed store can never be re-keyed, even when empty).
  void provision(const obf::HpnnKey& key, std::uint64_t schedule_seed,
                 obf::SchedulePolicy policy =
                     obf::SchedulePolicy::kInterleaved);

  /// Irreversibly forbids export of the secrets.
  void seal() { sealed_ = true; }

  bool provisioned() const { return provisioned_; }
  bool sealed() const { return sealed_; }

  /// Reads back the key — only possible before seal() (e.g. for the model
  /// owner's own provisioning flow). Throws KeyError once sealed.
  obf::HpnnKey export_key() const;

  /// Reads back the schedule seed — same sealing rules.
  std::uint64_t export_schedule_seed() const;

  /// SEU detection: recomputes the integrity digest taken at provisioning
  /// time over the stored secrets and compares. An unprovisioned store is
  /// trivially intact. A fault injector flips key bits *without* updating
  /// the digest, so single-event upsets are observable here.
  bool integrity_ok() const;

  /// Throws KeyError when the stored secrets no longer match their
  /// provisioning-time digest (fail fast instead of computing garbage).
  void check_integrity() const;

 private:
  friend class TrustedDevice;  // on-chip wiring to the accumulators
  friend class FaultInjector;  // physical fault model, not an API consumer

  bool key_bit(std::size_t i) const;
  const obf::Scheduler& scheduler() const;
  Sha256Digest compute_digest() const;

  bool provisioned_ = false;
  bool sealed_ = false;
  obf::HpnnKey key_;
  std::unique_ptr<obf::Scheduler> scheduler_;
  Sha256Digest digest_{};  // taken over the secrets at provisioning time
};

}  // namespace hpnn::hw

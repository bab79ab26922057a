#include "hw/secure_memory.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <span>
#include <string_view>

#include "core/error.hpp"

namespace hpnn::hw {

void SecureKeyStore::provision(const obf::HpnnKey& key,
                               std::uint64_t schedule_seed,
                               obf::SchedulePolicy policy) {
  if (sealed_) {
    throw KeyError("secure key store is sealed; provisioning forbidden");
  }
  if (provisioned_) {
    throw KeyError("secure key store is already provisioned");
  }
  key_ = key;
  scheduler_ = std::make_unique<obf::Scheduler>(schedule_seed, policy);
  provisioned_ = true;
  digest_ = compute_digest();
}

Sha256Digest keystore_digest(const obf::HpnnKey& key,
                             std::uint64_t schedule_seed,
                             obf::SchedulePolicy policy) {
  // Domain-separated digest over everything the datapath derives from:
  // the key words, the schedule seed and the tiling policy.
  static constexpr std::string_view kDomain = "hpnn-keystore-v1:";
  constexpr std::size_t kHex = obf::HpnnKey::kBits / 4;
  // Room for the domain, the hex key, two separators, a 20-digit seed
  // and a signed int.
  std::array<char, 128> message;
  static_assert(kDomain.size() + kHex + 2 + 20 + 11 <= message.size());
  char* out = std::copy(kDomain.begin(), kDomain.end(), message.data());
  key.write_hex(std::span<char, kHex>(out, kHex));
  out += kHex;
  *out++ = ':';
  char* const end = message.data() + message.size();
  // Leave the separator and the policy their room after the seed.
  out = std::to_chars(out, end - 12, schedule_seed).ptr;
  *out++ = ':';
  out = std::to_chars(out, end, static_cast<int>(policy)).ptr;
  return Sha256::hash(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(message.data()),
      static_cast<std::size_t>(out - message.data())));
}

Sha256Digest SecureKeyStore::compute_digest() const {
  return keystore_digest(key_, scheduler_->seed(), scheduler_->policy());
}

bool SecureKeyStore::integrity_ok() const {
  return !provisioned_ || compute_digest() == digest_;
}

void SecureKeyStore::check_integrity() const {
  if (!integrity_ok()) {
    throw KeyError(
        "secure key store failed its integrity check (corrupted key or "
        "schedule state)");
  }
}

obf::HpnnKey SecureKeyStore::export_key() const {
  if (!provisioned_) {
    throw KeyError("secure key store is not provisioned");
  }
  if (sealed_) {
    throw KeyError("secure key store is sealed; key export forbidden");
  }
  return key_;
}

std::uint64_t SecureKeyStore::export_schedule_seed() const {
  if (!provisioned_) {
    throw KeyError("secure key store is not provisioned");
  }
  if (sealed_) {
    throw KeyError("secure key store is sealed; schedule export forbidden");
  }
  return scheduler_->seed();
}

bool SecureKeyStore::key_bit(std::size_t i) const {
  HPNN_CHECK(provisioned_, "key store not provisioned");
  return key_.bit(i);
}

const obf::Scheduler& SecureKeyStore::scheduler() const {
  HPNN_CHECK(provisioned_, "key store not provisioned");
  return *scheduler_;
}

}  // namespace hpnn::hw

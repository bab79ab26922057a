#include "hw/secure_memory.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/error.hpp"
#include "hw/device.hpp"
#include "hw/fault.hpp"

namespace hpnn::hw {
namespace {

obf::HpnnKey some_key() {
  Rng rng(1);
  return obf::HpnnKey::random(rng);
}

TEST(SecureKeyStoreTest, StartsUnprovisioned) {
  SecureKeyStore store;
  EXPECT_FALSE(store.provisioned());
  EXPECT_FALSE(store.sealed());
  EXPECT_THROW(store.export_key(), KeyError);
  EXPECT_THROW(store.export_schedule_seed(), KeyError);
}

TEST(SecureKeyStoreTest, ProvisionThenExportBeforeSeal) {
  SecureKeyStore store;
  const auto key = some_key();
  store.provision(key, 99);
  EXPECT_TRUE(store.provisioned());
  EXPECT_EQ(store.export_key(), key);
  EXPECT_EQ(store.export_schedule_seed(), 99u);
}

TEST(SecureKeyStoreTest, ProvisionIsWriteOnce) {
  SecureKeyStore store;
  store.provision(some_key(), 1);
  EXPECT_THROW(store.provision(some_key(), 2), KeyError);
}

TEST(SecureKeyStoreTest, SealForbidsExport) {
  SecureKeyStore store;
  store.provision(some_key(), 7);
  store.seal();
  EXPECT_TRUE(store.sealed());
  EXPECT_THROW(store.export_key(), KeyError);
  EXPECT_THROW(store.export_schedule_seed(), KeyError);
}

TEST(SecureKeyStoreTest, ProvisionAfterSealThrows) {
  // Re-provisioning a sealed, provisioned store is the attack surface:
  // swapping the key after the device left the owner's hands.
  SecureKeyStore store;
  store.provision(some_key(), 3);
  store.seal();
  EXPECT_THROW(store.provision(some_key(), 4), KeyError);

  // Sealing an empty store must also close the provisioning port.
  SecureKeyStore empty;
  empty.seal();
  EXPECT_THROW(empty.provision(some_key(), 5), KeyError);
  EXPECT_FALSE(empty.provisioned());
}

TEST(SecureKeyStoreTest, IntegrityDigestTracksProvisioning) {
  SecureKeyStore unprovisioned;
  EXPECT_TRUE(unprovisioned.integrity_ok());  // nothing to protect yet
  unprovisioned.check_integrity();            // must not throw

  SecureKeyStore store;
  store.provision(some_key(), 13);
  store.seal();
  EXPECT_TRUE(store.integrity_ok());
  store.check_integrity();
}

TEST(SecureKeyStoreTest, IntegrityDigestDetectsTampering) {
  SecureKeyStore store;
  store.provision(some_key(), 21);
  store.seal();

  FaultPlan plan;
  plan.key_bits = {42};
  FaultInjector injector{plan};
  injector.apply_key_faults(store);  // flips a key word behind the digest

  EXPECT_FALSE(store.integrity_ok());
  EXPECT_THROW(store.check_integrity(), KeyError);
}

TEST(SecureKeyStoreTest, DigestMatchesTheStringBuiltMessage) {
  // The stack-buffer digest hashes exactly the bytes of the original
  // string-built message, for extreme seeds and both policies.
  Rng rng(5);
  const std::uint64_t seeds[] = {0, 1, 21, ~std::uint64_t{0}, rng(), rng()};
  for (const std::uint64_t seed : seeds) {
    for (const auto policy : {obf::SchedulePolicy::kInterleaved,
                              obf::SchedulePolicy::kBlocked}) {
      const obf::HpnnKey key = obf::HpnnKey::random(rng);
      const std::string message =
          "hpnn-keystore-v1:" + key.to_hex() + ":" + std::to_string(seed) +
          ":" + std::to_string(static_cast<int>(policy));
      EXPECT_EQ(keystore_digest(key, seed, policy), Sha256::hash(message))
          << "seed " << seed;
    }
  }
}

TEST(SecureKeyStoreTest, EveryFlippedKeyWordFailsTheIntegrityCheck) {
  for (const std::size_t bit : {0, 63, 64, 150, 200, 255}) {
    SecureKeyStore store;
    store.provision(some_key(), 21, obf::SchedulePolicy::kBlocked);
    store.seal();
    ASSERT_TRUE(store.integrity_ok());

    FaultPlan plan;
    plan.key_bits = {bit};
    FaultInjector injector{plan};
    injector.apply_key_faults(store);
    EXPECT_FALSE(store.integrity_ok()) << "bit " << bit;
  }
}

TEST(SecureKeyStoreTest, DeviceSealsOnConstruction) {
  TrustedDevice device(some_key(), 5);
  EXPECT_TRUE(device.key_store().provisioned());
  EXPECT_TRUE(device.key_store().sealed());
  EXPECT_THROW(device.key_store().export_key(), KeyError);
}

}  // namespace
}  // namespace hpnn::hw

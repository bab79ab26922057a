// Registry and selection-policy contracts of the compute-backend layer.
//
// These tests exercise core/compute_backend directly with fake backends so
// the policy is testable without the tensor layer: registration
// uniqueness, fail-closed resolution (unknown AND unsupported names
// throw), auto-pick by priority, the environment policy (HPNN_BACKEND, and
// the retired HPNN_SIMD failing closed), and epoch monotonicity. The real
// tiers are swept by the conformance kit in
// tests/tensor/backend_conformance_test.cpp.
#include "core/compute_backend.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/error.hpp"
#include "tensor/backend.hpp"

namespace hpnn::core {
namespace {

/// Minimal backend: scalar-equivalent semantics, configurable identity.
class FakeBackend : public ComputeBackend {
 public:
  FakeBackend(std::string name, bool supported, int priority)
      : name_(std::move(name)), supported_(supported), priority_(priority) {}

  std::string name() const override { return name_; }
  std::string description() const override { return "test double"; }
  bool supported() const override { return supported_; }
  int priority() const override { return priority_; }

  std::int64_t gemm_mr() const override { return 6; }
  std::int64_t gemm_nr() const override { return 16; }
  void gemm_micro(const float*, const float*, std::int64_t, float*,
                  std::int64_t, std::int64_t, std::int64_t,
                  float) const override {}
  void relu(const float*, float*, std::int64_t) const override {}
  void relu_mask(const float*, float*, std::int64_t) const override {}
  void mul(const float*, const float*, float*, std::int64_t) const override {}
  void axpy(float, const float*, float*, std::int64_t) const override {}
  void add_scalar(float, float*, std::int64_t) const override {}
  float dot(const float*, const float*, std::int64_t) const override {
    return 0.0f;
  }
  void lock_relu_grad(const float*, const float*, const float*, float*,
                      std::int64_t) const override {}

 private:
  std::string name_;
  bool supported_;
  int priority_;
};

/// Restores the entering backend selection on scope exit.
class ActiveRestorer {
 public:
  ActiveRestorer() : name_(ops::backend().name()) {}
  ~ActiveRestorer() { set_active_compute_backend(name_); }

 private:
  std::string name_;
};

/// Registers a fake once per process (the registry has process lifetime,
/// so repeated test runs within one binary must not re-register).
void register_fake_once(const std::string& name, bool supported,
                        int priority) {
  if (find_compute_backend(name) == nullptr) {
    register_compute_backend(
        std::make_unique<FakeBackend>(name, supported, priority));
  }
}

TEST(BackendEnvPolicyTest, ExplicitBackendNameWins) {
  EXPECT_EQ(backend_name_from_env("avx2"), "avx2");
  EXPECT_EQ(backend_name_from_env("avx512"), "avx512");
  EXPECT_EQ(backend_name_from_env("scalar"), "scalar");
}

TEST(BackendEnvPolicyTest, UnsetOrEmptyAutoPicks) {
  EXPECT_EQ(backend_name_from_env(nullptr), "");
  EXPECT_EQ(backend_name_from_env(""), "");
}

TEST(BackendEnvPolicyTest, RetiredSimdEnvIsRejected) {
  // Every value fails closed — the old kill-switch spellings and the old
  // "SIMD allowed" ones alike — and the message names the replacement.
  for (const char* value : {"off", "0", "false", "scalar", "1", "on"}) {
    try {
      reject_retired_simd_env(value);
      ADD_FAILURE() << "HPNN_SIMD=" << value << " was accepted";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("HPNN_BACKEND=scalar"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(reject_retired_simd_env(nullptr));
  EXPECT_NO_THROW(reject_retired_simd_env(""));
}

TEST(BackendRegistryTest, DuplicateNameThrows) {
  register_fake_once("conftest-dup", true, -100);
  EXPECT_THROW(register_compute_backend(
                   std::make_unique<FakeBackend>("conftest-dup", true, -100)),
               InvariantError);
}

TEST(BackendRegistryTest, NullBackendThrows) {
  EXPECT_THROW(register_compute_backend(nullptr), InvariantError);
}

TEST(BackendRegistryTest, LookupIsFailClosed) {
  EXPECT_EQ(find_compute_backend("conftest-missing"), nullptr);
  EXPECT_THROW(compute_backend_by_name("conftest-missing"), UsageError);
}

TEST(BackendRegistryTest, SettingUnknownOrUnsupportedThrows) {
  ActiveRestorer restore;
  register_fake_once("conftest-unsupported", false, -100);
  const std::string before = active_compute_backend().name();
  EXPECT_THROW(set_active_compute_backend("conftest-missing"), UsageError);
  EXPECT_THROW(set_active_compute_backend("conftest-unsupported"), UsageError);
  // A failed switch never falls back and never changes the selection.
  EXPECT_EQ(active_compute_backend().name(), before);
}

TEST(BackendRegistryTest, EpochAdvancesOnEverySwitch) {
  ActiveRestorer restore;
  register_fake_once("conftest-a", true, -100);
  const std::uint64_t e0 = compute_backend_epoch();
  set_active_compute_backend("conftest-a");
  const std::uint64_t e1 = compute_backend_epoch();
  EXPECT_GT(e1, e0);
  // Re-selecting the same backend still bumps: callers use the epoch as a
  // conservative "anything might have moved" signal.
  set_active_compute_backend("conftest-a");
  EXPECT_GT(compute_backend_epoch(), e1);
}

TEST(BackendRegistryTest, FailedSwitchDoesNotInvalidateCaches) {
  ActiveRestorer restore;
  const std::uint64_t e0 = compute_backend_epoch();
  EXPECT_THROW(set_active_compute_backend("conftest-missing"), UsageError);
  EXPECT_EQ(compute_backend_epoch(), e0);
}

TEST(BackendRegistryTest, AutoPickPrefersHighestPrioritySupported) {
  // The unsupported fake has the numerically greatest priority of the
  // fakes; auto-pick must skip it. The built-in tiers all have priority
  // >= 0, so the winner is a real tier, never a fake.
  register_fake_once("conftest-unsupported", false, -100);
  register_fake_once("conftest-a", true, -100);
  ActiveRestorer restore;
  const ComputeBackend& active = active_compute_backend();
  EXPECT_TRUE(active.supported());
  EXPECT_GE(active.priority(), 0);
}

}  // namespace
}  // namespace hpnn::core

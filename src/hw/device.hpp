// The trusted hardware device (Fig. 1, right): a TPU-like inference
// accelerator with the HPNN key in sealed on-chip storage.
//
// The device downloads a published (obfuscated) model artifact and runs
// inference on its integer datapath:
//   - conv/FC MACs execute on the MMU in int8 with 32-bit keyed accumulators;
//     when a MAC layer feeds a nonlinear activation directly (all Table I
//     networks), the lock factor is applied *inside the accumulator* via the
//     Fig. 4 XOR bank — the paper's mechanism, with zero cycle overhead;
//   - pooling / batch-norm / residual adds run on the host/vector unit in
//     float (as on a real TPU);
//   - for activations fed by vector-unit ops (ResNet's post-BN and
//     post-residual-add ReLUs), the sign is applied at the activation unit
//     input instead — mathematically identical, since our LockedModel also
//     places those locks after the vector ops.
//
// The per-neuron lock factors are derived on-chip from the sealed key and
// the private scheduling algorithm — independently from, but identically
// to, the owner's training-time derivation (the correctness contract
// verified by tests/hw/device_test.cpp).
//
// load_model compiles the artifact once into an immutable execution plan
// (DevicePlan): a flat op list with int8 weights prepared for the active
// compute backend, lock masks expanded into per-output negate bytes and
// sign·bias terms, static scales bound and MAC+ReLU fusion decided. infer()
// is a const walk over that plan, so concurrent calls on one device are
// safe (with no fault injector attached).
#pragma once

#include <memory>
#include <vector>

#include "hpnn/attestation.hpp"
#include "hpnn/model_io.hpp"
#include "hw/mmu.hpp"
#include "hw/quant.hpp"
#include "hw/secure_memory.hpp"

namespace hpnn::hw {

class FaultInjector;
struct DevicePlan;

struct DeviceConfig {
  Fidelity fidelity = Fidelity::kFast;
  /// Must match the owner's training-time scheduling policy.
  obf::SchedulePolicy schedule_policy = obf::SchedulePolicy::kInterleaved;
};

class TrustedDevice {
 public:
  /// Provisions and seals the device with the owner's secrets. After
  /// construction the key can no longer be exported (models license
  /// hardware handed to an end-user).
  TrustedDevice(const obf::HpnnKey& key, std::uint64_t schedule_seed,
                DeviceConfig config = {});
  ~TrustedDevice();

  /// Loads a model-zoo artifact and compiles it into the execution plan:
  /// weights are quantized and laid out for the active compute backend
  /// (the plan keeps that backend even if the active one changes later).
  /// The artifact's scheme tag selects the registered LockScheme: unknown
  /// tags fail closed with SerializationError, weight-transforming schemes
  /// (weight-stream) are decrypted on load with the sealed secrets, and
  /// activation lock masks are applied only for schemes that use them
  /// (sign-lock). An artifact whose layers do not fit its input geometry,
  /// or that holds a layer the device cannot execute, is rejected here.
  /// Fails fast with KeyError if the sealed key store no longer passes its
  /// integrity check — a corrupted device must not serve predictions.
  /// Strong exception safety: the new plan is built completely, then
  /// swapped in, so a failure leaves the previous model serving.
  void load_model(const obf::PublishedModel& artifact);
  bool has_model() const { return plan_ != nullptr; }

  /// Post-load health check: verifies key-store integrity (KeyError on
  /// mismatch) and replays an attestation challenge bundled with the
  /// artifact, so a silently corrupted device degrades to a detected
  /// error instead of confidently wrong predictions.
  obf::AttestationResult self_test(
      const obf::AttestationChallenge& challenge);

  /// Attaches a fault-injection engine (nullptr detaches). Planned key-bit
  /// SEUs are applied immediately and persist for the device's lifetime
  /// (the loaded plan's lock masks are re-derived from the faulted key);
  /// transient accumulator/scale faults fire during subsequent inference,
  /// which then runs serially so fault draws follow GEMM issue order.
  /// Without an injector every hook reduces to a null-pointer test.
  void attach_fault_injector(FaultInjector* injector);

  /// Runs inference on a batch [N, C, H, W]; returns logits [N, classes].
  /// Throws ShapeError if the batch does not match the loaded artifact's
  /// input geometry (serving inputs are untrusted). Holds no per-request
  /// state between calls, so an exception unwinding mid-inference cannot
  /// affect the next request, and concurrent calls are safe. Non-finite
  /// pixels quantize to defined values (NaN to 0, ±inf saturate).
  Tensor infer(const Tensor& images) const;

  /// Argmax class per sample.
  std::vector<std::int64_t> classify(const Tensor& images) const;

  const MmuStats& mmu_stats() const { return mmu_.stats(); }
  void reset_stats() { mmu_.reset_stats(); }
  const SecureKeyStore& key_store() const { return key_store_; }

 private:
  /// Derives every lock site's negate bytes (and their count), sign·bias
  /// terms and vector-unit masks from the sealed key (on-chip key
  /// expansion).
  void expand_locks(DevicePlan& plan) const;

  SecureKeyStore key_store_;
  DeviceConfig config_;
  /// The MMU's statistics are its only mutable state (mutex-guarded), so
  /// const inference may drive it.
  mutable Mmu mmu_;
  FaultInjector* fault_ = nullptr;
  std::unique_ptr<const DevicePlan> plan_;
};

}  // namespace hpnn::hw

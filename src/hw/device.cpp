#include "hw/device.hpp"

#include <utility>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "hpnn/lock_scheme.hpp"
#include "hw/device_plan.hpp"
#include "hw/fault.hpp"
#include "tensor/backend.hpp"

namespace hpnn::hw {

TrustedDevice::TrustedDevice(const obf::HpnnKey& key,
                             std::uint64_t schedule_seed, DeviceConfig config)
    : config_(config), mmu_(config.fidelity) {
  key_store_.provision(key, schedule_seed, config.schedule_policy);
  key_store_.seal();  // end-user hardware never exposes the secrets
}

TrustedDevice::~TrustedDevice() = default;

void TrustedDevice::load_model(const obf::PublishedModel& artifact) {
  key_store_.check_integrity();
  // Resolve the artifact's locking scheme first: an unknown tag fails
  // closed (SerializationError) before any state changes.
  const obf::LockScheme& scheme = obf::scheme_by_tag(artifact.scheme_tag);
  scheme.validate_payload(artifact.scheme_payload);
  std::unique_ptr<nn::Sequential> net;
  if (scheme.transforms_weights()) {
    // On-chip decryption at load: invert the published transform with the
    // sealed secrets, mirroring the owner's keychain derivation. A wrong
    // key decodes to garbage weights — degraded accuracy, not an error.
    obf::PublishedModel unlocked = artifact;
    const obf::SchemeSecrets secrets{key_store_.key_,
                                     key_store_.scheduler().seed(),
                                     key_store_.scheduler().policy()};
    scheme.unlock_payload(unlocked, secrets);
    net = obf::instantiate_baseline(unlocked);
  } else {
    net = obf::instantiate_baseline(artifact);
  }
  net->set_training(false);
  // Build the whole plan before touching device state: a corrupt artifact
  // that throws partway leaves the previous plan serving.
  std::unique_ptr<DevicePlan> plan = compile_plan(
      std::move(net), artifact.in_channels, artifact.image_size,
      artifact.activation_scales, scheme.uses_activation_locks(),
      ops::backend());
  expand_locks(*plan);
  plan_ = std::move(plan);  // commit point: the swap cannot throw
}

void TrustedDevice::expand_locks(DevicePlan& plan) const {
  for (DevicePlan::Op& op : plan.ops) {
    if (op.lock_index < 0) {
      continue;
    }
    // On-chip expansion of the sealed key through the private scheduler —
    // the same derivation the owner used at training time.
    const obf::LockSpec spec{"device_act", op.lock_index, op.out_shape};
    const Tensor mask = key_store_.scheduler().lock_mask(spec, key_store_.key_);
    const float* m = mask.data();
    const auto count = static_cast<std::size_t>(mask.numel());
    if (op.kind == DevicePlan::Kind::kRelu) {
      op.mask.assign(m, m + count);
      continue;
    }
    // Bias is preloaded into the same keyed accumulator on real hardware,
    // so the lock sign applies to it as well.
    op.negate.resize(count);
    op.locked_outputs = 0;
    for (std::size_t i = 0; i < count; ++i) {
      op.negate[i] = m[i] < 0.0f;
      op.locked_outputs += op.negate[i];
      op.sign_bias[i] = (op.negate[i] != 0 ? -1.0f : 1.0f) * op.bias[i];
    }
  }
}

obf::AttestationResult TrustedDevice::self_test(
    const obf::AttestationChallenge& challenge) {
  key_store_.check_integrity();
  HPNN_CHECK(plan_ != nullptr, "no model loaded for device self-test");
  return obf::check_response(challenge, classify(challenge.probes));
}

void TrustedDevice::attach_fault_injector(FaultInjector* injector) {
  fault_ = injector;
  mmu_.attach_fault_injector(injector);
  if (injector != nullptr) {
    injector->apply_key_faults(key_store_);
    if (plan_ != nullptr) {
      // Lock masks derive from the (now possibly faulted) key bits.
      auto plan = std::make_unique<DevicePlan>(*plan_);
      expand_locks(*plan);
      plan_ = std::move(plan);
    }
  }
}

Tensor TrustedDevice::infer(const Tensor& images) const {
  HPNN_CHECK(plan_ != nullptr, "no model loaded on the trusted device");
  const DevicePlan& plan = *plan_;
  if (images.rank() != 4 || images.dim(1) != plan.in_channels ||
      images.dim(2) != plan.image_size || images.dim(3) != plan.image_size) {
    throw ShapeError(
        "device input must be [N, " + std::to_string(plan.in_channels) +
        ", " + std::to_string(plan.image_size) + ", " +
        std::to_string(plan.image_size) + "], got " +
        images.shape().to_string());
  }
  // Batched-serving latency: one histogram sample per infer() request, so
  // the snapshot's p50/p95/p99 describe request latency and its count
  // equals requests served (asserted by the serving integration test).
  metrics::Histogram* latency = nullptr;
  if (metrics::enabled()) {
    static metrics::Histogram& hist =
        metrics::MetricsRegistry::instance().histogram(
            "hw.device.infer.latency_us");
    latency = &hist;
  }
  metrics::TraceSpan span("hw.device.infer", latency);
  HPNN_METRIC_COUNT("hw.device.infer.requests", 1);
  HPNN_METRIC_COUNT("hw.device.infer.samples", images.dim(0));
  return run_plan(plan, images, mmu_, fault_);
}

std::vector<std::int64_t> TrustedDevice::classify(const Tensor& images) const {
  return ops::argmax_rows(infer(images));
}

}  // namespace hpnn::hw

// Exception-recovery regressions for TrustedDevice:
//   - an inference that dies mid-batch (injected datapath fault, bad input)
//     must not leave the device misaligned for the next request (the
//     execution plan keeps no per-request state; the test name predates
//     the plan and the traversal cursors it replaced);
//   - load_model is strongly exception-safe: a corrupt artifact leaves the
//     previously loaded model (and its caches) serving bit-identically.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "hpnn/calibration.hpp"
#include "hpnn/locked_model.hpp"
#include "hpnn/model_io.hpp"
#include "hw/device.hpp"
#include "hw/fault.hpp"

namespace hpnn::hw {
namespace {

struct Fixture {
  obf::HpnnKey key;
  std::uint64_t schedule_seed = 77;
  obf::PublishedModel artifact;
};

Fixture make_fixture(std::uint64_t model_seed, bool static_quant) {
  Fixture f;
  Rng rng(41);
  f.key = obf::HpnnKey::random(rng);
  obf::Scheduler sched(f.schedule_seed);
  models::ModelConfig mc;
  mc.in_channels = 1;
  mc.image_size = 16;
  mc.init_seed = model_seed;
  obf::LockedModel model(models::Architecture::kCnn1, mc, f.key, sched);

  std::vector<float> scales;
  if (static_quant) {
    Rng calib_rng(43);
    const Tensor calib =
        Tensor::normal(Shape{4, 1, 16, 16}, calib_rng, 0.0f, 0.5f);
    scales = obf::calibrate_activation_scales(model, calib);
  }
  std::stringstream ss;
  obf::publish_model(ss, model, scales);
  f.artifact = obf::read_published_model(ss);
  return f;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(DeviceRecoveryTest, MidBatchFaultLeavesCursorsClean) {
  const Fixture f = make_fixture(/*model_seed=*/5, /*static_quant=*/true);
  Rng in_rng(19);
  const Tensor images = Tensor::normal(Shape{3, 1, 16, 16}, in_rng, 0.0f, 0.5f);

  TrustedDevice fresh(f.key, f.schedule_seed);
  fresh.load_model(f.artifact);
  const Tensor expected = fresh.infer(images);

  TrustedDevice device(f.key, f.schedule_seed);
  device.load_model(f.artifact);

  // Corrupt the second MAC layer's static-scale register to zero: it is
  // first read by the first MAC layer, whose drain requantizes with it, so
  // the scale invariant trips inside the first MAC op and the inference
  // unwinds mid-batch.
  FaultPlan plan;
  plan.scale_relative_error = -1.0;
  plan.scale_layers = {1};
  FaultInjector injector(plan);
  device.attach_fault_injector(&injector);
  EXPECT_THROW((void)device.infer(images), InvariantError);
  device.attach_fault_injector(nullptr);

  // The next inference starts at activation/MAC index 0 and matches a
  // never-faulted device exactly.
  const Tensor after = device.infer(images);
  EXPECT_TRUE(same_bits(expected, after));
}

TEST(DeviceRecoveryTest, BadInputShapeDoesNotPoisonNextRequest) {
  const Fixture f = make_fixture(/*model_seed=*/6, /*static_quant=*/false);
  Rng in_rng(23);
  const Tensor images = Tensor::normal(Shape{2, 1, 16, 16}, in_rng, 0.0f, 0.5f);
  const Tensor wrong = Tensor::normal(Shape{2, 1, 8, 8}, in_rng, 0.0f, 0.5f);

  TrustedDevice fresh(f.key, f.schedule_seed);
  fresh.load_model(f.artifact);
  const Tensor expected = fresh.infer(images);

  TrustedDevice device(f.key, f.schedule_seed);
  device.load_model(f.artifact);
  EXPECT_THROW((void)device.infer(wrong), ShapeError);
  EXPECT_TRUE(same_bits(expected, device.infer(images)));
}

TEST(DeviceRecoveryTest, LoadModelRejectsTamperedArtifactAndKeepsServing) {
  const Fixture good = make_fixture(/*model_seed=*/7, /*static_quant=*/false);
  Rng in_rng(29);
  const Tensor images = Tensor::normal(Shape{2, 1, 16, 16}, in_rng, 0.0f, 0.5f);

  TrustedDevice device(good.key, good.schedule_seed);
  device.load_model(good.artifact);
  const Tensor expected = device.infer(images);

  // In-memory tampering that survives parsing but must fail instantiation.
  {
    obf::PublishedModel bad = good.artifact;
    bad.parameters.at(0).name = "conv999.weight";
    EXPECT_THROW(device.load_model(bad), SerializationError);
  }
  {
    obf::PublishedModel bad = good.artifact;
    bad.parameters.pop_back();
    EXPECT_THROW(device.load_model(bad), SerializationError);
  }
  {
    obf::PublishedModel bad = good.artifact;
    bad.parameters.at(0).value = Tensor::zeros(Shape{1, 2, 3});
    EXPECT_THROW(device.load_model(bad), SerializationError);
  }

  // Strong exception safety: the device still serves the original model,
  // bit-identical to before the failed loads.
  EXPECT_TRUE(device.has_model());
  EXPECT_TRUE(same_bits(expected, device.infer(images)));
}

TEST(DeviceRecoveryTest, TruncationSweepNeverDisturbsLoadedModel) {
  const Fixture good = make_fixture(/*model_seed=*/8, /*static_quant=*/true);
  Rng in_rng(31);
  const Tensor images = Tensor::normal(Shape{2, 1, 16, 16}, in_rng, 0.0f, 0.5f);

  TrustedDevice device(good.key, good.schedule_seed);
  device.load_model(good.artifact);
  const Tensor expected = device.infer(images);

  // Re-serialize the artifact and sweep truncation points (same shape as
  // the artifact-fuzz sweep): every prefix must be rejected cleanly while
  // the device keeps its loaded model.
  obf::Scheduler sched(good.schedule_seed);
  std::stringstream full_ss;
  {
    auto locked = obf::instantiate_locked(good.artifact, good.key, sched);
    obf::publish_model(full_ss, *locked, good.artifact.activation_scales);
  }
  const std::string full = full_ss.str();
  for (std::size_t len = 0; len < full.size(); len += 256) {
    std::stringstream ss(full.substr(0, len));
    try {
      device.load_model(obf::read_published_model(ss));
      FAIL() << "truncation to " << len << " bytes loaded successfully";
    } catch (const SerializationError&) {
      // expected: parse or load rejected the prefix
    }
  }
  EXPECT_TRUE(same_bits(expected, device.infer(images)));
}

}  // namespace
}  // namespace hpnn::hw

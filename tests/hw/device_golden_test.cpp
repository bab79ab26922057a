// Golden logit digests for the trusted device.
//
// The conformance kits compare backends with each other, so a change to
// the device's shared execution path that is wrong but deterministic moves
// every backend together and passes them all. This suite pins the device's
// answers instead: seeded tiny artifacts are built inside the test, and the
// SHA-256 digest of every logit tensor must equal the committed value on
// every supported backend.
//
// Grid: CNN1, CNN2, CNN3 and a small ResNet18; sign-lock and weight-stream;
// calibrated static scales and the dynamic per-batch fallback; batch 1 and
// batch 8. Only the digests are committed. They assume IEEE-754 binary32
// arithmetic without FMA contraction outside the backend kernels.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "hpnn/attestation.hpp"
#include "hpnn/calibration.hpp"
#include "hpnn/lock_scheme.hpp"
#include "hpnn/model_io.hpp"
#include "hw/device.hpp"
#include "tensor/backend.hpp"

namespace hpnn::hw {
namespace {

struct GoldenCase {
  models::Architecture arch;
  const char* scheme;
  bool static_scales;
  /// logit_digest_hex of the batch-8 logits, then of the batch-1 logits.
  const char* digest_b8;
  const char* digest_b1;
};

models::ModelConfig config_for(models::Architecture arch) {
  models::ModelConfig cfg;
  cfg.in_channels = arch == models::Architecture::kCnn1 ? 1 : 3;
  cfg.image_size = 16;
  cfg.init_seed = 9;
  cfg.width_mult = arch == models::Architecture::kResNet18 ? 0.125
                   : arch == models::Architecture::kCnn2   ? 0.25
                   : arch == models::Architecture::kCnn3   ? 0.5
                                                           : 1.0;
  return cfg;
}

struct Digests {
  std::string b8;
  std::string b1;
};

/// Builds the case's artifact and serves it on the active backend. The
/// owner side (batch-norm statistics, calibration) runs float GEMMs whose
/// rounding is backend-specific, so the artifact is always built on the
/// scalar backend; only the device runs on the backend under test.
Digests run_case(const GoldenCase& c, const std::string& device_backend) {
  ops::set_backend("scalar");
  const models::ModelConfig cfg = config_for(c.arch);
  Rng key_rng(2024);
  const obf::HpnnKey master = obf::HpnnKey::random(key_rng);
  const obf::SchemeSecrets secrets =
      obf::derive_scheme_secrets(master, "golden");
  const obf::LockScheme& scheme = obf::scheme_by_tag(c.scheme);
  auto model = scheme.make_trainable(c.arch, cfg, secrets);

  // Layers initialize their biases to zero, and a zero bias hides the
  // lock sign the device applies to it; give every bias a seeded value.
  Rng bias_rng(31);
  for (nn::Parameter* param : nn::parameters_of(model->network())) {
    const std::string& name = param->name;
    if (name.size() >= 4 && name.compare(name.size() - 4, 4, "bias") == 0) {
      param->assign_value(
          Tensor::normal(param->value.shape(), bias_rng, 0.0f, 0.1f));
    }
  }

  Rng data_rng(77);
  const Shape batch_shape{8, cfg.in_channels, cfg.image_size, cfg.image_size};
  if (c.arch == models::Architecture::kResNet18) {
    // Populate batch-norm running statistics, as training would.
    model->network().set_training(true);
    (void)model->network().forward(
        Tensor::normal(batch_shape, data_rng, 0.0f, 0.5f));
  }
  model->network().set_training(false);
  std::vector<float> scales;
  if (c.static_scales) {
    scales = obf::calibrate_activation_scales(
        *model, Tensor::normal(batch_shape, data_rng, 0.0f, 0.5f));
  }
  std::stringstream ss;
  obf::publish_protected_model(ss, scheme, *model, secrets, scales);
  const obf::PublishedModel artifact = obf::read_published_model(ss);

  ops::set_backend(device_backend);
  TrustedDevice device(secrets.key, secrets.schedule_seed);
  device.load_model(artifact);
  const Tensor batch = Tensor::normal(batch_shape, data_rng, 0.0f, 0.5f);
  const Tensor single = Tensor::normal(
      Shape{1, cfg.in_channels, cfg.image_size, cfg.image_size}, data_rng,
      0.0f, 0.5f);
  return {obf::logit_digest_hex(device.infer(batch)),
          obf::logit_digest_hex(device.infer(single))};
}

std::vector<std::string> supported_backends() {
  std::vector<std::string> names;
  for (const auto& name : ops::backend_names()) {
    if (ops::find_backend(name)->supported()) {
      names.push_back(name);
    }
  }
  return names;
}

class DeviceGoldenTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { previous_ = ops::backend().name(); }
  void TearDown() override { ops::set_backend(previous_); }

 private:
  std::string previous_;
};

INSTANTIATE_TEST_SUITE_P(
    Backends, DeviceGoldenTest, ::testing::ValuesIn(supported_backends()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

using models::Architecture;

const GoldenCase kCases[] = {
    {Architecture::kCnn1, obf::kSignLockTag, true,
     "f5bed98db597dbe61ca6c302c9f8670bdebddc2d50334d318d02ebb3b5d36929",
     "07e6c0ffa96eaa5aa61a53d2ef54bf7b47121ea2d59d49aa4d75dc6528bf99c2"},
    {Architecture::kCnn1, obf::kSignLockTag, false,
     "bc9d9c84ad82469c73a1b2ba1a5f6556e917ffb0e326039971f218533739a20f",
     "c0b58052a68cdb095563c9f122e4f5bedb5b500c38b3dd5ba2b8b0930d139f4e"},
    {Architecture::kCnn1, obf::kWeightStreamTag, true,
     "dd3cce5107653f0c16cb44de2d9e09fb2171762ac8c1a6db5c4309aaff942da0",
     "436448ad536c30202cafedcbee93710cd710c9e566df1eb985f06c22db9d5d36"},
    {Architecture::kCnn1, obf::kWeightStreamTag, false,
     "24d3749bebfe148094d99ce23df141b8e82939a47185a5935e3e4f332c0cf1b6",
     "c7b36711322e83a4a9cd59175eb901eec51838c613a6005d67c9310b98b893f9"},
    {Architecture::kCnn2, obf::kSignLockTag, true,
     "0364cc55e0a6ae5f74b82da6797ad455cfffd295dcf3dfdc6e1e1d5acd79da78",
     "0a0c897517e81c73825bafcb525951e576e2ce8943b6bcfce302aeb60db41918"},
    {Architecture::kCnn2, obf::kSignLockTag, false,
     "9b5bfab786daea4e7a83697ae856470a0aa5e4f2b22fbce8c1184e4a8c10fbf5",
     "9d264cedc2030c3ac35fd39a70d9ea99a12fce2cbbdd23a3085afebd929d208f"},
    {Architecture::kCnn2, obf::kWeightStreamTag, true,
     "f6ddd23f19e7913eb54592137539d63b952766500606bad198604079cd9d13dd",
     "832140968617ce01cfc9bb98f28c3661eb6c418d3483f97f2dcf50dea7e55650"},
    {Architecture::kCnn2, obf::kWeightStreamTag, false,
     "3d3dab7c6d8b6254f0d41ba55e63c97fb72371e7f1e46f4ae594e789cbe730d0",
     "9812f6a9a7b8fdc8f05b93856fa8795daaad39232a1482b64292d60e8375f44d"},
    {Architecture::kCnn3, obf::kSignLockTag, true,
     "2246c5b7cedf67a6362db927d5be4c92159626a7d8837f5253f197bd00f64176",
     "4ddd014c0a6c1e74adfc74dea0901344b90bd086139744ddf4b9086764c81ff4"},
    {Architecture::kCnn3, obf::kSignLockTag, false,
     "6d164c100f18beeffac3d69cebb39ff984ec71b5ab71faf7a690e0488ba39185",
     "7eeddd3cbd14b3c6fab7c4038d5714dac0be6da026381fe96a07f13b4868df0c"},
    {Architecture::kCnn3, obf::kWeightStreamTag, true,
     "4612e400586c4b2feeaf09dadf038139846a3751ea762c27e4b0dfc23e212269",
     "63d53558c5db89a46b1487557b229637b3ebfc461cff8014290f5362a3a31e40"},
    {Architecture::kCnn3, obf::kWeightStreamTag, false,
     "e7e4d0cbe0f92fb98507899c27277821f52f5b4c09b27dd4c1728351c2f4b02d",
     "395fd1378b3d9b4ef75360baa0c91e7c810a5a1417bde32274850a19c1fde7f5"},
    {Architecture::kResNet18, obf::kSignLockTag, true,
     "02a9b6a05e05ab23e1de61417e329d3b71de998a6f3e283ce542672392aec8e3",
     "ef712cfd8a44c20364ad99b1c9b0d8f3c512730b3071cab11f31896cd7c84a68"},
    {Architecture::kResNet18, obf::kSignLockTag, false,
     "681d5d5509ea3ff45ca336a456729893ef432ce7063ce70ba43f39295edae93c",
     "e220a7a71da44dd2cce38ca45b07bd4db445299dce60686685e63ed20db73bd3"},
    {Architecture::kResNet18, obf::kWeightStreamTag, true,
     "306766494cbe89c02c2527af27eb923cbb04faae65ac84481f9c3bdabd373702",
     "67f641d2cca2e49540792e955684859760e70e667db5c0bbe9893a04497aa481"},
    {Architecture::kResNet18, obf::kWeightStreamTag, false,
     "c7f81576558d0f6eceaa311bb60012bd35a300d01abcba3d7921a31ab84941dc",
     "e2b249c6e82ba4e6b9ad4fb91ac4c94604a758ec9bc0eeceaab83e4a60f3d882"},
};

TEST_P(DeviceGoldenTest, LogitDigestsMatchCommittedValues) {
  for (const GoldenCase& c : kCases) {
    const std::string label = models::arch_name(c.arch) + "/" + c.scheme +
                              (c.static_scales ? "/static" : "/dynamic");
    const Digests got = run_case(c, GetParam());
    EXPECT_EQ(got.b8, c.digest_b8) << label << " batch 8";
    EXPECT_EQ(got.b1, c.digest_b1) << label << " batch 1";
  }
}

}  // namespace
}  // namespace hpnn::hw

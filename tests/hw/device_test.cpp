// End-to-end contract of the trusted device: its integer datapath with
// on-chip key expansion must reproduce the owner's float locked model.
#include "hw/device.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "core/error.hpp"
#include "hpnn/calibration.hpp"
#include "hpnn/owner.hpp"
#include "tensor/ops.hpp"

namespace hpnn::hw {
namespace {

struct PublishedSetup {
  obf::HpnnKey key;
  std::uint64_t schedule_seed = 12345;
  obf::PublishedModel artifact;
  std::unique_ptr<obf::LockedModel> owner_model;
};

PublishedSetup make_published(models::Architecture arch,
                              const models::ModelConfig& cfg,
                              std::uint64_t key_seed) {
  PublishedSetup s;
  Rng rng(key_seed);
  s.key = obf::HpnnKey::random(rng);
  obf::Scheduler sched(s.schedule_seed);
  s.owner_model = std::make_unique<obf::LockedModel>(arch, cfg, s.key, sched);
  std::stringstream ss;
  obf::publish_model(ss, *s.owner_model);
  s.artifact = obf::read_published_model(ss);
  return s;
}

models::ModelConfig cnn1_cfg() {
  models::ModelConfig cfg;
  cfg.in_channels = 1;
  cfg.image_size = 16;
  cfg.init_seed = 7;
  return cfg;
}

TEST(DeviceTest, RequiresLoadedModel) {
  Rng rng(1);
  TrustedDevice device(obf::HpnnKey::random(rng), 1);
  EXPECT_FALSE(device.has_model());
  EXPECT_THROW(device.infer(Tensor(Shape{1, 1, 16, 16})), InvariantError);
}

TEST(DeviceTest, LogitShape) {
  auto s = make_published(models::Architecture::kCnn1, cnn1_cfg(), 11);
  TrustedDevice device(s.key, s.schedule_seed);
  device.load_model(s.artifact);
  Rng rng(2);
  const Tensor x = Tensor::normal(Shape{3, 1, 16, 16}, rng, 0.0f, 0.25f);
  EXPECT_EQ(device.infer(x).shape(), Shape({3, 10}));
}

TEST(DeviceTest, MatchesFloatLockedModelClosely) {
  auto s = make_published(models::Architecture::kCnn1, cnn1_cfg(), 13);
  TrustedDevice device(s.key, s.schedule_seed);
  device.load_model(s.artifact);

  Rng rng(3);
  const Tensor x = Tensor::normal(Shape{16, 1, 16, 16}, rng, 0.0f, 0.25f);
  const Tensor float_logits = s.owner_model->network().forward(x);
  const Tensor device_logits = device.infer(x);

  // int8 dynamic quantization: logits agree to a few percent, and the
  // predicted classes agree on a large majority of samples.
  const auto float_pred = ops::argmax_rows(float_logits);
  const auto device_pred = ops::argmax_rows(device_logits);
  int agree = 0;
  for (std::size_t i = 0; i < float_pred.size(); ++i) {
    agree += (float_pred[i] == device_pred[i]);
  }
  EXPECT_GE(agree, 14) << "quantized argmax diverged too often";
}

TEST(DeviceTest, WrongKeyDeviceDiverges) {
  auto s = make_published(models::Architecture::kCnn1, cnn1_cfg(), 17);
  Rng rng(4);
  const obf::HpnnKey wrong = obf::HpnnKey::random(rng);
  ASSERT_NE(wrong, s.key);
  TrustedDevice good(s.key, s.schedule_seed);
  TrustedDevice bad(wrong, s.schedule_seed);
  good.load_model(s.artifact);
  bad.load_model(s.artifact);
  const Tensor x = Tensor::normal(Shape{8, 1, 16, 16}, rng, 0.0f, 0.25f);
  EXPECT_FALSE(good.infer(x).allclose(bad.infer(x), 1e-2f, 1e-2f));
}

TEST(DeviceTest, WrongScheduleSeedDiverges) {
  auto s = make_published(models::Architecture::kCnn1, cnn1_cfg(), 19);
  TrustedDevice good(s.key, s.schedule_seed);
  TrustedDevice bad(s.key, s.schedule_seed + 1);
  good.load_model(s.artifact);
  bad.load_model(s.artifact);
  Rng rng(5);
  const Tensor x = Tensor::normal(Shape{8, 1, 16, 16}, rng, 0.0f, 0.25f);
  EXPECT_FALSE(good.infer(x).allclose(bad.infer(x), 1e-2f, 1e-2f));
}

TEST(DeviceTest, KeyedMacsAreExercised) {
  auto s = make_published(models::Architecture::kCnn1, cnn1_cfg(), 23);
  TrustedDevice device(s.key, s.schedule_seed);
  device.load_model(s.artifact);
  Rng rng(6);
  (void)device.infer(Tensor::normal(Shape{1, 1, 16, 16}, rng, 0.0f, 0.25f));
  const auto& stats = device.mmu_stats();
  EXPECT_GT(stats.mac_ops, 0u);
  EXPECT_GT(stats.locked_outputs, 0u);  // the XOR key path actually ran
  EXPECT_GT(stats.cycles, 0u);
}

TEST(DeviceTest, StatsResetWorks) {
  auto s = make_published(models::Architecture::kCnn1, cnn1_cfg(), 29);
  TrustedDevice device(s.key, s.schedule_seed);
  device.load_model(s.artifact);
  Rng rng(7);
  (void)device.infer(Tensor::normal(Shape{1, 1, 16, 16}, rng));
  device.reset_stats();
  EXPECT_EQ(device.mmu_stats().mac_ops, 0u);
}

TEST(DeviceTest, ClassifyReturnsArgmax) {
  auto s = make_published(models::Architecture::kCnn1, cnn1_cfg(), 31);
  TrustedDevice device(s.key, s.schedule_seed);
  device.load_model(s.artifact);
  Rng rng(8);
  const Tensor x = Tensor::normal(Shape{4, 1, 16, 16}, rng, 0.0f, 0.25f);
  const Tensor logits = device.infer(x);
  const auto classes = device.classify(x);
  ASSERT_EQ(classes.size(), 4u);
  EXPECT_EQ(classes, ops::argmax_rows(logits));
}

TEST(DeviceTest, BitAccurateFidelityMatchesFast) {
  models::ModelConfig cfg = cnn1_cfg();
  cfg.image_size = 16;  // keep the gate-level run small
  auto s = make_published(models::Architecture::kCnn1, cfg, 37);
  TrustedDevice fast(s.key, s.schedule_seed, {Fidelity::kFast});
  TrustedDevice gates(s.key, s.schedule_seed, {Fidelity::kBitAccurate});
  fast.load_model(s.artifact);
  gates.load_model(s.artifact);
  Rng rng(9);
  const Tensor x = Tensor::normal(Shape{1, 1, 16, 16}, rng, 0.0f, 0.25f);
  EXPECT_TRUE(fast.infer(x).allclose(gates.infer(x), 0.0f, 0.0f));
}

TEST(DeviceTest, ExecutesCnn3Architecture) {
  models::ModelConfig cfg;
  cfg.in_channels = 3;
  cfg.image_size = 16;
  cfg.init_seed = 3;
  cfg.width_mult = 0.5;
  auto s = make_published(models::Architecture::kCnn3, cfg, 41);
  TrustedDevice device(s.key, s.schedule_seed);
  device.load_model(s.artifact);
  Rng rng(10);
  const Tensor x = Tensor::normal(Shape{2, 3, 16, 16}, rng, 0.0f, 0.25f);
  EXPECT_EQ(device.infer(x).shape(), Shape({2, 10}));
}

TEST(DeviceTest, ExecutesResNet18WithVectorUnitLocks) {
  models::ModelConfig cfg;
  cfg.in_channels = 3;
  cfg.image_size = 16;
  cfg.init_seed = 3;
  cfg.width_mult = 0.125;
  auto s = make_published(models::Architecture::kResNet18, cfg, 43);

  // Populate batch-norm running stats in the owner's model before
  // publishing (as real training would).
  Rng rng(11);
  s.owner_model->network().set_training(true);
  (void)s.owner_model->network().forward(
      Tensor::normal(Shape{8, 3, 16, 16}, rng, 0.0f, 0.25f));
  s.owner_model->network().set_training(false);
  std::stringstream ss;
  obf::publish_model(ss, *s.owner_model);
  s.artifact = obf::read_published_model(ss);

  TrustedDevice device(s.key, s.schedule_seed);
  device.load_model(s.artifact);
  const Tensor x = Tensor::normal(Shape{4, 3, 16, 16}, rng, 0.0f, 0.25f);
  const Tensor device_logits = device.infer(x);
  const Tensor float_logits = s.owner_model->network().forward(x);

  const auto dp = ops::argmax_rows(device_logits);
  const auto fp = ops::argmax_rows(float_logits);
  int agree = 0;
  for (std::size_t i = 0; i < dp.size(); ++i) {
    agree += (dp[i] == fp[i]);
  }
  EXPECT_GE(agree, 3);  // quantization noise tolerance on 4 samples
}

TEST(DeviceTest, BlockedSchedulePolicyRoundTrips) {
  // Owner trains with the blocked tiling policy; a device configured with
  // the same policy recovers the function, one with the default policy
  // does not.
  models::ModelConfig cfg = cnn1_cfg();
  Rng rng(81);
  const obf::HpnnKey key = obf::HpnnKey::random(rng);
  const std::uint64_t seed = 4242;
  obf::Scheduler blocked(seed, obf::SchedulePolicy::kBlocked);
  obf::LockedModel owner(models::Architecture::kCnn1, cfg, key, blocked);
  std::stringstream ss;
  obf::publish_model(ss, owner);
  const auto artifact = obf::read_published_model(ss);

  DeviceConfig match_cfg;
  match_cfg.schedule_policy = obf::SchedulePolicy::kBlocked;
  TrustedDevice matching(key, seed, match_cfg);
  TrustedDevice mismatched(key, seed);  // default: interleaved
  matching.load_model(artifact);
  mismatched.load_model(artifact);

  const Tensor x = Tensor::normal(Shape{8, 1, 16, 16}, rng, 0.0f, 0.25f);
  owner.network().set_training(false);
  const auto fp = ops::argmax_rows(owner.network().forward(x));
  const auto mp = matching.classify(x);
  int agree = 0;
  for (std::size_t i = 0; i < fp.size(); ++i) {
    agree += (mp[i] == fp[i]);
  }
  EXPECT_GE(agree, 6);
  EXPECT_FALSE(matching.infer(x).allclose(mismatched.infer(x), 1e-2f,
                                          1e-2f));
}

/// The device must execute every zoo architecture and agree with the float
/// locked model on most argmax predictions.
class DeviceArchTest
    : public ::testing::TestWithParam<models::Architecture> {};

TEST_P(DeviceArchTest, ExecutesAndTracksFloatModel) {
  const auto arch = GetParam();
  models::ModelConfig cfg;
  cfg.in_channels = arch == models::Architecture::kCnn1 ||
                            arch == models::Architecture::kMlp ||
                            arch == models::Architecture::kLeNet5
                        ? 1
                        : 3;
  cfg.image_size = 16;
  cfg.init_seed = 5;
  cfg.width_mult = arch == models::Architecture::kResNet18   ? 0.125
                   : arch == models::Architecture::kCnn2     ? 0.25
                   : arch == models::Architecture::kCnn3     ? 0.5
                                                             : 1.0;
  auto s = make_published(arch, cfg, 71);

  if (arch == models::Architecture::kResNet18) {
    // Populate batch-norm running stats before publishing.
    Rng rng(1);
    s.owner_model->network().set_training(true);
    (void)s.owner_model->network().forward(
        Tensor::normal(Shape{8, cfg.in_channels, 16, 16}, rng, 0.0f, 0.25f));
    s.owner_model->network().set_training(false);
    std::stringstream ss;
    obf::publish_model(ss, *s.owner_model);
    s.artifact = obf::read_published_model(ss);
  }

  TrustedDevice device(s.key, s.schedule_seed);
  device.load_model(s.artifact);
  Rng rng(2);
  const Tensor x =
      Tensor::normal(Shape{12, cfg.in_channels, 16, 16}, rng, 0.0f, 0.25f);
  const auto device_pred = device.classify(x);
  s.owner_model->network().set_training(false);
  const auto float_pred =
      ops::argmax_rows(s.owner_model->network().forward(x));
  int agree = 0;
  for (std::size_t i = 0; i < device_pred.size(); ++i) {
    agree += (device_pred[i] == float_pred[i]);
  }
  EXPECT_GE(agree, 9) << models::arch_name(arch)
                      << ": int8 device diverged from float model";
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, DeviceArchTest,
                         ::testing::ValuesIn(models::all_architectures()),
                         [](const auto& info) {
                           return models::arch_name(info.param);
                         });

// ---- non-finite artifact numbers fail closed ---------------------------

/// One artifact field a hostile or corrupt artifact can make non-finite.
struct NonFiniteCase {
  const char* name;
  models::Architecture arch;
  /// Suffix of the parameter or buffer to poison; empty: activation scale 1.
  const char* tensor;
  float value;
};

void PrintTo(const NonFiniteCase& c, std::ostream* os) { *os << c.name; }

class DeviceNonFiniteArtifactTest
    : public ::testing::TestWithParam<NonFiniteCase> {};

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

INSTANTIATE_TEST_SUITE_P(
    Fields, DeviceNonFiniteArtifactTest,
    ::testing::Values(
        NonFiniteCase{"StaticScale", models::Architecture::kCnn3, "", kInf},
        NonFiniteCase{"ConvWeight", models::Architecture::kCnn3,
                      "conv2.weight", kNan},
        NonFiniteCase{"LinearWeight", models::Architecture::kCnn3,
                      "fc1.weight", -kInf},
        NonFiniteCase{"Bias", models::Architecture::kCnn3, "conv1.bias",
                      kNan},
        NonFiniteCase{"BatchNormGamma", models::Architecture::kResNet18,
                      "bn1.gamma", kInf},
        NonFiniteCase{"BatchNormBeta", models::Architecture::kResNet18,
                      "bn2.beta", kNan},
        NonFiniteCase{"BatchNormRunningMean", models::Architecture::kResNet18,
                      "running_mean", kInf},
        NonFiniteCase{"BatchNormRunningVar", models::Architecture::kResNet18,
                      "running_var", kNan}),
    [](const ::testing::TestParamInfo<NonFiniteCase>& info) {
      return std::string(info.param.name);
    });

/// Sets element 0 of the first tensor whose name ends with `suffix`;
/// returns whether one did.
bool poison(std::vector<obf::PublishedModel::NamedTensor>& tensors,
            const std::string& suffix, float value) {
  for (auto& t : tensors) {
    if (t.name.size() >= suffix.size() &&
        t.name.compare(t.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      t.value.data()[0] = value;
      return true;
    }
  }
  return false;
}

TEST_P(DeviceNonFiniteArtifactTest, RejectedAndPreviousPlanKeepsServing) {
  const NonFiniteCase& c = GetParam();
  models::ModelConfig cfg;
  cfg.in_channels = 3;
  cfg.image_size = 16;
  cfg.init_seed = 5;
  cfg.width_mult =
      c.arch == models::Architecture::kResNet18 ? 0.125 : 0.5;
  auto s = make_published(c.arch, cfg, 47);
  Rng rng(12);
  const Tensor x = Tensor::normal(Shape{2, 3, 16, 16}, rng, 0.0f, 0.25f);
  s.artifact.activation_scales = obf::calibrate_activation_scales(
      *s.owner_model, Tensor::normal(Shape{4, 3, 16, 16}, rng, 0.0f, 0.25f));

  obf::PublishedModel bad = s.artifact;
  if (std::string(c.tensor).empty()) {
    bad.activation_scales[1] = c.value;
  } else {
    ASSERT_TRUE(poison(bad.parameters, c.tensor, c.value) ||
                poison(bad.buffers, c.tensor, c.value))
        << "no tensor named *" << c.tensor;
  }

  TrustedDevice device(s.key, s.schedule_seed);
  device.load_model(s.artifact);
  const Tensor want = device.infer(x);
  EXPECT_THROW(device.load_model(bad), SerializationError);
  const Tensor got = device.infer(x);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_EQ(got.data()[i], want.data()[i]) << "logit " << i;
  }
}

}  // namespace
}  // namespace hpnn::hw

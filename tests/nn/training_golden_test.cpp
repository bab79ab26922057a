// Golden parameter digests for locked-model training.
//
// The determinism suite compares thread counts with each other and the
// device golden test never trains, so a change to the training kernels
// (conv backward, GEMM packing, the optimizer) that moves result bits
// would pass both. This suite pins the bits instead: seeded tiny locked
// models train for a few SGD steps inside the test, and the SHA-256 of
// every parameter must equal the committed value for the backend it ran
// on. Float GEMM rounding differs between backends (FMA, tile widths), so
// each backend has its own digests; backends this CPU does not support are
// not instantiated. The digests assume IEEE-754 binary32 arithmetic
// without FMA contraction outside the backend kernels.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/sha256.hpp"
#include "hpnn/lock_scheme.hpp"
#include "nn/losses.hpp"
#include "nn/optim.hpp"
#include "nn/trainer.hpp"
#include "tensor/backend.hpp"

namespace hpnn::nn {
namespace {

struct Digests {
  const char* cnn3;
  const char* resnet18;
};

/// Committed digests per backend, recorded on an x86-64 host. The AVX2
/// and AVX-512 tiers produce the same bits on these two models.
const std::map<std::string, Digests> kGolden = {
    {"scalar",
     {"0c49ab4616132b5321456ed158415d875c539f6c65f5f8d4f357cd371189cc3d",
      "591f35848150d21da89b60e06f03cf3eb46db3c09912ba989eb3d9d677660a66"}},
    {"avx2",
     {"68fda04cf488112dd419078276846395207220551333200dc58dc2ac0d38ad85",
      "bbd2298e23ee280b3dbebcb16dff83d0d4684f0ba2cf62c219884674f76a87e3"}},
    {"avx512",
     {"68fda04cf488112dd419078276846395207220551333200dc58dc2ac0d38ad85",
      "bbd2298e23ee280b3dbebcb16dff83d0d4684f0ba2cf62c219884674f76a87e3"}},
};

/// Trains a seeded sign-locked model of `arch` for four SGD steps (two
/// epochs of two batches of eight 16x16 images) on the active backend and
/// returns the SHA-256 over every parameter's name, shape and values.
std::string train_digest(models::Architecture arch, double width_mult) {
  models::ModelConfig cfg;
  cfg.in_channels = 3;
  cfg.image_size = 16;
  cfg.init_seed = 5;
  cfg.width_mult = width_mult;
  Rng key_rng(404);
  const obf::SchemeSecrets secrets = obf::derive_scheme_secrets(
      obf::HpnnKey::random(key_rng), "training-golden");
  auto model = obf::scheme_by_tag(obf::kSignLockTag)
                   .make_trainable(arch, cfg, secrets);

  Rng data_rng(88);
  const Tensor images = Tensor::normal(Shape{16, 3, 16, 16}, data_rng);
  std::vector<std::int64_t> labels(16);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i % 10);
  }
  SoftmaxCrossEntropy loss;
  Sgd opt(parameters_of(model->network()), Sgd::Options{0.05, 0.9, 5e-4});
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 8;
  tc.shuffle_seed = 3;
  (void)fit(model->network(), loss, opt, images, labels, tc);

  Sha256 hasher;
  auto feed = [&](const void* p, std::size_t n) {
    hasher.update(
        std::span<const std::uint8_t>(static_cast<const std::uint8_t*>(p), n));
  };
  for (const Parameter* param : parameters_of(model->network())) {
    feed(param->name.data(), param->name.size());
    for (const std::int64_t d : param->value.shape().dims()) {
      feed(&d, sizeof(d));
    }
    feed(param->value.data(),
         static_cast<std::size_t>(param->value.numel()) * sizeof(float));
  }
  return to_hex(hasher.finalize());
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

class TrainingGoldenTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    previous_ = ops::backend().name();
    ops::set_backend(GetParam());
  }
  void TearDown() override { ops::set_backend(previous_); }

 private:
  std::string previous_;
};

INSTANTIATE_TEST_SUITE_P(
    Backends, TrainingGoldenTest, ::testing::ValuesIn(supported_backends()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST_P(TrainingGoldenTest, ParameterDigestsMatchCommittedValues) {
  const auto it = kGolden.find(GetParam());
  ASSERT_NE(it, kGolden.end()) << "no committed digests for " << GetParam();
  // CNN3 covers the 3x3/stride-1 convolutions and max-pooling; ResNet18 at
  // 16x16 adds stride-2 and 1x1 shortcut convolutions, batch norm and
  // stages down to 2x2 planes.
  EXPECT_EQ(train_digest(models::Architecture::kCnn3, 0.5), it->second.cnn3);
  EXPECT_EQ(train_digest(models::Architecture::kResNet18, 0.125),
            it->second.resnet18);
}

}  // namespace
}  // namespace hpnn::nn

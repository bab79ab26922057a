#include "models/zoo.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "nn/trainer.hpp"

namespace hpnn::models {
namespace {

ModelConfig cfg(std::int64_t channels, std::int64_t size, double width = 1.0) {
  ModelConfig c;
  c.in_channels = channels;
  c.image_size = size;
  c.num_classes = 10;
  c.init_seed = 3;
  c.width_mult = width;
  return c;
}

TEST(ZooTest, ArchNames) {
  EXPECT_EQ(arch_name(Architecture::kCnn1), "CNN1");
  EXPECT_EQ(arch_name(Architecture::kCnn2), "CNN2");
  EXPECT_EQ(arch_name(Architecture::kCnn3), "CNN3");
  EXPECT_EQ(arch_name(Architecture::kResNet18), "ResNet18");
}

// Table I column 3: locked-neuron counts at the paper's native resolutions.
TEST(ZooTest, Cnn1NeuronCountMatchesTable1) {
  EXPECT_EQ(locked_neuron_count(Architecture::kCnn1, cfg(1, 28)), 4352);
}

TEST(ZooTest, Cnn2NeuronCountMatchesTable1) {
  EXPECT_EQ(locked_neuron_count(Architecture::kCnn2, cfg(3, 32)), 198144);
}

TEST(ZooTest, Cnn3NeuronCountMatchesTable1) {
  EXPECT_EQ(locked_neuron_count(Architecture::kCnn3, cfg(3, 32)), 29696);
}

// gtest prints a case byte by byte into the test's name, so the struct
// holds no implicit padding: `reserved` fills the gap after the 4-byte enum
// with zeros. Left as padding, those bytes were whatever the stack held, and
// the test names changed from one listing to the next.
struct ArchCase {
  ArchCase(Architecture arch_, std::int64_t channels_, std::int64_t size_,
           double width_)
      : arch(arch_), channels(channels_), size(size_), width(width_) {}

  Architecture arch;
  std::int32_t reserved = 0;
  std::int64_t channels;
  std::int64_t size;
  double width;
};
static_assert(sizeof(Architecture) == sizeof(std::int32_t) &&
                  sizeof(ArchCase) == 32,
              "ArchCase must stay free of padding bytes");

class ArchBuildTest : public ::testing::TestWithParam<ArchCase> {};

TEST_P(ArchBuildTest, ForwardProducesLogits) {
  const auto& p = GetParam();
  auto net = build(p.arch, cfg(p.channels, p.size, p.width));
  Rng rng(1);
  const Tensor x =
      Tensor::normal(Shape{2, p.channels, p.size, p.size}, rng);
  net->set_training(true);
  const Tensor y = net->forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 10}));
}

TEST_P(ArchBuildTest, BackwardRunsAndFillsGrads) {
  const auto& p = GetParam();
  auto net = build(p.arch, cfg(p.channels, p.size, p.width));
  Rng rng(2);
  const Tensor x =
      Tensor::normal(Shape{2, p.channels, p.size, p.size}, rng);
  net->set_training(true);
  nn::SoftmaxCrossEntropy loss;
  const Tensor scores = net->forward(x);
  (void)loss.forward(scores, {0, 1});
  (void)net->backward(loss.backward());
  double grad_norm = 0.0;
  for (const auto* param : nn::parameters_of(*net)) {
    grad_norm += param->grad.squared_norm();
  }
  EXPECT_GT(grad_norm, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    SmallConfigs, ArchBuildTest,
    ::testing::Values(ArchCase{Architecture::kCnn1, 1, 16, 0.5},
                      ArchCase{Architecture::kCnn2, 3, 16, 0.125},
                      ArchCase{Architecture::kCnn3, 3, 16, 0.5},
                      ArchCase{Architecture::kResNet18, 3, 16, 0.125},
                      ArchCase{Architecture::kMlp, 1, 16, 0.5},
                      ArchCase{Architecture::kLeNet5, 1, 16, 1.0}),
    [](const auto& info) { return arch_name(info.param.arch); });

TEST(ZooTest, ArchNameRoundTrip) {
  for (const auto arch : all_architectures()) {
    EXPECT_EQ(arch_from_name(arch_name(arch)), arch);
  }
  EXPECT_THROW(arch_from_name("VGG19"), Error);
}

TEST(ZooTest, MlpLocksEveryHiddenLayer) {
  std::vector<Shape> shapes;
  ModelConfig c = cfg(1, 16, 0.5);
  c.activation = [&shapes](const std::string& name, const Shape& s) {
    shapes.push_back(s);
    return std::make_unique<nn::ReLU>(name);
  };
  (void)build(Architecture::kMlp, c);
  ASSERT_EQ(shapes.size(), 3u);
  EXPECT_EQ(shapes[0], Shape({128}));  // 256 * 0.5
  EXPECT_EQ(shapes[1], Shape({64}));
  EXPECT_EQ(shapes[2], Shape({32}));
}

TEST(ZooTest, LeNet5Structure) {
  // 2 conv ReLUs + 2 FC ReLUs = 4 locked layers.
  std::int64_t count = 0;
  ModelConfig c = cfg(1, 28);
  c.activation = [&count](const std::string& name, const Shape&) {
    ++count;
    return std::make_unique<nn::ReLU>(name);
  };
  auto net = build(Architecture::kLeNet5, c);
  EXPECT_EQ(count, 4);
  Rng rng(1);
  EXPECT_EQ(net->forward(Tensor::normal(Shape{1, 1, 28, 28}, rng)).shape(),
            Shape({1, 10}));
}

TEST(ZooTest, TooSmallImageThrowsShapeError) {
  EXPECT_THROW(build(Architecture::kCnn1, cfg(1, 12)), ShapeError);
}

TEST(ZooTest, ActivationFactoryReceivesShapes) {
  std::vector<Shape> shapes;
  ModelConfig c = cfg(1, 28);
  c.activation = [&shapes](const std::string& name, const Shape& s) {
    shapes.push_back(s);
    return std::make_unique<nn::ReLU>(name);
  };
  (void)build(Architecture::kCnn1, c);
  ASSERT_EQ(shapes.size(), 2u);  // CNN1 has 2 ReLU layers
  EXPECT_EQ(shapes[0], Shape({6, 24, 24}));
  EXPECT_EQ(shapes[1], Shape({14, 8, 8}));
}

TEST(ZooTest, WidthMultScalesChannels) {
  const auto full = locked_neuron_count(Architecture::kCnn1, cfg(1, 28, 1.0));
  const auto half = locked_neuron_count(Architecture::kCnn1, cfg(1, 28, 0.5));
  EXPECT_LT(half, full);
  EXPECT_GT(half, 0);
}

TEST(ZooTest, DeterministicInitPerSeed) {
  auto a = build(Architecture::kCnn3, cfg(3, 16, 0.5));
  auto b = build(Architecture::kCnn3, cfg(3, 16, 0.5));
  const auto pa = nn::parameters_of(*a);
  const auto pb = nn::parameters_of(*b);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i]->value.allclose(pb[i]->value, 0.0f, 0.0f));
  }
}

TEST(ZooTest, CopyParametersTransfersState) {
  auto src = build(Architecture::kResNet18, cfg(3, 16, 0.125));
  ModelConfig other = cfg(3, 16, 0.125);
  other.init_seed = 999;
  auto dst = build(Architecture::kResNet18, other);

  // advance src batchnorm stats so buffers differ
  Rng rng(5);
  src->set_training(true);
  (void)src->forward(Tensor::normal(Shape{2, 3, 16, 16}, rng));

  copy_parameters(*src, *dst);
  const auto ps = nn::parameters_of(*src);
  const auto pd = nn::parameters_of(*dst);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_TRUE(ps[i]->value.allclose(pd[i]->value, 0.0f, 0.0f));
  }
  const auto bs = nn::buffers_of(*src);
  const auto bd = nn::buffers_of(*dst);
  for (std::size_t i = 0; i < bs.size(); ++i) {
    EXPECT_TRUE(bs[i].second->allclose(*bd[i].second, 0.0f, 0.0f));
  }
}

TEST(ZooTest, CopyParametersMismatchThrows) {
  auto a = build(Architecture::kCnn1, cfg(1, 16));
  auto b = build(Architecture::kCnn3, cfg(3, 16));
  EXPECT_THROW(copy_parameters(*a, *b), InvariantError);
}

TEST(ZooTest, InvalidConfigThrows) {
  ModelConfig c = cfg(0, 16);
  EXPECT_THROW(build(Architecture::kCnn1, c), InvariantError);
}

}  // namespace
}  // namespace hpnn::models

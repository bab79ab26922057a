#include "models/zoo.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace hpnn::models {

namespace {

using nn::BatchNorm2d;
using nn::Conv2d;
using nn::Flatten;
using nn::GlobalAvgPool;
using nn::Linear;
using nn::MaxPool2d;
using nn::ReLU;
using nn::Residual;
using nn::Sequential;

std::unique_ptr<nn::Module> default_act(const std::string& name,
                                        const Shape&) {
  return std::make_unique<ReLU>(name);
}

/// Tracks spatial geometry while stacking layers into a Sequential.
struct Builder {
  Sequential& net;
  const ModelConfig& cfg;
  Rng rng;
  std::int64_t c;
  std::int64_t h;
  std::int64_t w;
  int act_index = 0;

  Builder(Sequential& n, const ModelConfig& config)
      : net(n),
        cfg(config),
        rng(config.init_seed),
        c(config.in_channels),
        h(config.image_size),
        w(config.image_size) {}

  std::int64_t scaled(std::int64_t base) const {
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(base * cfg.width_mult));
  }

  void conv(std::int64_t out_ch, std::int64_t kernel, std::int64_t stride,
            std::int64_t padding, const std::string& name, bool bias = true) {
    ops::Conv2dGeometry g{c, h, w, kernel, stride, padding};
    const std::int64_t oh = g.out_h();
    const std::int64_t ow = g.out_w();
    if (oh <= 0 || ow <= 0) {
      throw ShapeError("image too small for " + name + " at " +
                       std::to_string(h) + "x" + std::to_string(w));
    }
    net.add(std::make_unique<Conv2d>(g, out_ch, rng, name, bias));
    c = out_ch;
    h = oh;
    w = ow;
  }

  void act() {
    const std::string name = "act" + std::to_string(++act_index);
    const auto& factory = cfg.activation ? cfg.activation : default_act;
    net.add(factory(name, Shape{c, h, w}));
  }

  void act_flat(std::int64_t features) {
    const std::string name = "act" + std::to_string(++act_index);
    const auto& factory = cfg.activation ? cfg.activation : default_act;
    net.add(factory(name, Shape{features}));
  }

  void pool(std::int64_t kernel, std::int64_t stride,
            const std::string& name) {
    if (h < kernel || w < kernel) {
      throw ShapeError("image too small for " + name + " at " +
                       std::to_string(h) + "x" + std::to_string(w));
    }
    const std::int64_t oh = (h - kernel) / stride + 1;
    const std::int64_t ow = (w - kernel) / stride + 1;
    net.add(std::make_unique<MaxPool2d>(kernel, stride, name));
    h = oh;
    w = ow;
  }

  void flatten() {
    net.add(std::make_unique<Flatten>());
    c = c * h * w;
    h = w = 1;
  }

  void fc(std::int64_t out_features, const std::string& name) {
    net.add(std::make_unique<Linear>(c, out_features, rng, name));
    c = out_features;
  }

  void bn(const std::string& name) {
    net.add(std::make_unique<BatchNorm2d>(c, name));
  }
};

void build_cnn1(Builder& b) {
  b.conv(b.scaled(6), 5, 1, 0, "conv1");
  b.act();
  b.pool(2, 2, "pool1");
  b.conv(b.scaled(14), 5, 1, 0, "conv2");
  b.act();
  b.pool(2, 2, "pool2");
  b.flatten();
  b.fc(b.cfg.num_classes, "fc1");
}

void build_cnn2(Builder& b) {
  const std::int64_t widths[3] = {b.scaled(64), b.scaled(96), b.scaled(128)};
  int conv_id = 0;
  for (int stage = 0; stage < 3; ++stage) {
    for (int rep = 0; rep < 2; ++rep) {
      b.conv(widths[stage], 3, 1, 1, "conv" + std::to_string(++conv_id));
      b.act();
    }
    b.pool(2, 2, "pool" + std::to_string(stage + 1));
  }
  b.flatten();
  b.fc(b.scaled(1024), "fc1");
  b.act_flat(b.c);
  b.fc(b.scaled(512), "fc2");
  b.act_flat(b.c);
  b.fc(b.cfg.num_classes, "fc3");
}

void build_cnn3(Builder& b) {
  const std::int64_t widths[3] = {b.scaled(24), b.scaled(16), b.scaled(14)};
  for (int stage = 0; stage < 3; ++stage) {
    b.conv(widths[stage], 3, 1, 1, "conv" + std::to_string(stage + 1));
    b.act();
    b.pool(2, 2, "pool" + std::to_string(stage + 1));
  }
  b.flatten();
  b.fc(b.scaled(128), "fc1");
  b.act_flat(b.c);
  b.fc(b.cfg.num_classes, "fc2");
}

/// 3-hidden-layer multilayer perceptron (all nonlinearities locked).
void build_mlp(Builder& b) {
  b.flatten();
  const std::int64_t widths[3] = {b.scaled(256), b.scaled(128), b.scaled(64)};
  for (int i = 0; i < 3; ++i) {
    b.fc(widths[i], "fc" + std::to_string(i + 1));
    b.act_flat(b.c);
  }
  b.fc(b.cfg.num_classes, "fc4");
}

/// Classic LeNet-5 (ReLU variant): C5x6 -> pool -> C5x16 -> pool ->
/// FC120 -> FC84 -> FC10.
void build_lenet5(Builder& b) {
  b.conv(b.scaled(6), 5, 1, 2, "conv1");
  b.act();
  b.pool(2, 2, "pool1");
  b.conv(b.scaled(16), 5, 1, 0, "conv2");
  b.act();
  b.pool(2, 2, "pool2");
  b.flatten();
  b.fc(b.scaled(120), "fc1");
  b.act_flat(b.c);
  b.fc(b.scaled(84), "fc2");
  b.act_flat(b.c);
  b.fc(b.cfg.num_classes, "fc3");
}

/// CIFAR-style ResNet18: 3x3 stem (no initial maxpool), 4 stages of 2 basic
/// blocks with widths 64/128/256/512, global average pooling head.
void build_resnet18(Builder& b) {
  const auto& factory = b.cfg.activation ? b.cfg.activation : default_act;
  b.conv(b.scaled(64), 3, 1, 1, "stem.conv", /*bias=*/false);
  b.bn("stem.bn");
  b.act();

  const std::int64_t stage_width[4] = {b.scaled(64), b.scaled(128),
                                       b.scaled(256), b.scaled(512)};
  const std::int64_t stage_stride[4] = {1, 2, 2, 2};
  for (int stage = 0; stage < 4; ++stage) {
    for (int block = 0; block < 2; ++block) {
      const std::int64_t stride = (block == 0) ? stage_stride[stage] : 1;
      const std::int64_t out_ch = stage_width[stage];
      std::string prefix = "s";
      prefix += std::to_string(stage + 1);
      prefix += 'b';
      prefix += std::to_string(block + 1);

      const std::int64_t in_ch = b.c;
      const std::int64_t in_h = b.h;
      const std::int64_t in_w = b.w;
      const std::int64_t out_h = (in_h + 2 - 3) / stride + 1;
      const std::int64_t out_w = (in_w + 2 - 3) / stride + 1;
      if (out_h <= 0 || out_w <= 0) {
        throw ShapeError("image too small for ResNet18 block " + prefix);
      }

      auto main = std::make_unique<Sequential>(prefix + ".main");
      main->add(std::make_unique<Conv2d>(
          ops::Conv2dGeometry{in_ch, in_h, in_w, 3, stride, 1}, out_ch, b.rng,
          prefix + ".conv1", false));
      main->add(std::make_unique<BatchNorm2d>(out_ch, prefix + ".bn1"));
      main->add(factory("act" + std::to_string(++b.act_index),
                        Shape{out_ch, out_h, out_w}));
      main->add(std::make_unique<Conv2d>(
          ops::Conv2dGeometry{out_ch, out_h, out_w, 3, 1, 1}, out_ch, b.rng,
          prefix + ".conv2", false));
      main->add(std::make_unique<BatchNorm2d>(out_ch, prefix + ".bn2"));

      std::unique_ptr<nn::Module> shortcut;
      if (stride != 1 || in_ch != out_ch) {
        auto sc = std::make_unique<Sequential>(prefix + ".shortcut");
        sc->add(std::make_unique<Conv2d>(
            ops::Conv2dGeometry{in_ch, in_h, in_w, 1, stride, 0}, out_ch,
            b.rng, prefix + ".proj", false));
        sc->add(std::make_unique<BatchNorm2d>(out_ch, prefix + ".proj_bn"));
        shortcut = std::move(sc);
      }

      auto post = factory("act" + std::to_string(++b.act_index),
                          Shape{out_ch, out_h, out_w});
      b.net.add(std::make_unique<Residual>(std::move(main),
                                           std::move(shortcut),
                                           std::move(post), prefix));
      b.c = out_ch;
      b.h = out_h;
      b.w = out_w;
    }
  }
  b.net.add(std::make_unique<GlobalAvgPool>());
  b.h = b.w = 1;
  b.fc(b.cfg.num_classes, "fc");
}

}  // namespace

ActivationFactory plain_relu_factory() {
  return [](const std::string& name, const Shape&) {
    return std::make_unique<ReLU>(name);
  };
}

std::string arch_name(Architecture arch) {
  switch (arch) {
    case Architecture::kCnn1:
      return "CNN1";
    case Architecture::kCnn2:
      return "CNN2";
    case Architecture::kCnn3:
      return "CNN3";
    case Architecture::kResNet18:
      return "ResNet18";
    case Architecture::kMlp:
      return "MLP";
    case Architecture::kLeNet5:
      return "LeNet5";
  }
  return "unknown";
}

Architecture arch_from_name(const std::string& name) {
  for (const auto arch : all_architectures()) {
    if (arch_name(arch) == name) {
      return arch;
    }
  }
  throw Error("unknown architecture name: " + name);
}

std::vector<Architecture> all_architectures() {
  return {Architecture::kCnn1, Architecture::kCnn2,  Architecture::kCnn3,
          Architecture::kResNet18, Architecture::kMlp, Architecture::kLeNet5};
}

std::unique_ptr<nn::Sequential> build(Architecture arch,
                                      const ModelConfig& config) {
  HPNN_CHECK(config.in_channels > 0 && config.image_size > 0 &&
                 config.num_classes > 0,
             "invalid model config");
  auto net = std::make_unique<nn::Sequential>(arch_name(arch));
  Builder b(*net, config);
  switch (arch) {
    case Architecture::kCnn1:
      build_cnn1(b);
      break;
    case Architecture::kCnn2:
      build_cnn2(b);
      break;
    case Architecture::kCnn3:
      build_cnn3(b);
      break;
    case Architecture::kResNet18:
      build_resnet18(b);
      break;
    case Architecture::kMlp:
      build_mlp(b);
      break;
    case Architecture::kLeNet5:
      build_lenet5(b);
      break;
  }
  return net;
}

std::int64_t locked_neuron_count(Architecture arch,
                                 const ModelConfig& config) {
  std::int64_t total = 0;
  ModelConfig counting = config;
  counting.activation = [&total](const std::string& name, const Shape& s) {
    total += s.numel();
    return std::make_unique<ReLU>(name);
  };
  (void)build(arch, counting);
  return total;
}

void copy_parameters(nn::Module& src, nn::Module& dst) {
  const auto sp = nn::parameters_of(src);
  const auto dp = nn::parameters_of(dst);
  HPNN_CHECK(sp.size() == dp.size(),
             "copy_parameters: parameter count mismatch (" +
                 std::to_string(sp.size()) + " vs " +
                 std::to_string(dp.size()) + ")");
  for (std::size_t i = 0; i < sp.size(); ++i) {
    HPNN_CHECK(sp[i]->value.shape() == dp[i]->value.shape(),
               "copy_parameters: shape mismatch at " + sp[i]->name);
    dp[i]->assign_value(sp[i]->value);
  }
  const auto sb = nn::buffers_of(src);
  const auto db = nn::buffers_of(dst);
  HPNN_CHECK(sb.size() == db.size(), "copy_parameters: buffer count mismatch");
  for (std::size_t i = 0; i < sb.size(); ++i) {
    HPNN_CHECK(sb[i].second->shape() == db[i].second->shape(),
               "copy_parameters: buffer shape mismatch at " + sb[i].first);
    *db[i].second = *sb[i].second;
  }
}

}  // namespace hpnn::models

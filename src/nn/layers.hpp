// Core layers: Linear, Conv2d, ReLU, MaxPool2d, Flatten, GlobalAvgPool,
// Dropout. BatchNorm2d and Residual live in their own headers.
#pragma once

#include <optional>
#include <string>

#include "core/rng.hpp"
#include "nn/module.hpp"
#include "tensor/ops.hpp"

namespace hpnn::nn {

/// Fully-connected layer: y = x @ W^T + b, x: [N, in], W: [out, in].
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
         std::string name = "linear", bool bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::string name() const override { return name_; }

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }
  Parameter& weight() { return weight_; }
  Parameter* bias() { return bias_ ? &*bias_ : nullptr; }

 private:
  std::string name_;
  std::int64_t in_features_;
  std::int64_t out_features_;
  Parameter weight_;
  std::optional<Parameter> bias_;
  Tensor cached_input_;
};

/// 2-d convolution with square kernel, fixed spatial geometry.
class Conv2d : public Module {
 public:
  Conv2d(const ops::Conv2dGeometry& geometry, std::int64_t out_channels,
         Rng& rng, std::string name = "conv", bool bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::string name() const override { return name_; }

  const ops::Conv2dGeometry& geometry() const { return geometry_; }
  std::int64_t out_channels() const { return out_channels_; }
  Parameter& weight() { return weight_; }
  Parameter* bias() { return bias_ ? &*bias_ : nullptr; }

 private:
  std::string name_;
  ops::Conv2dGeometry geometry_;
  std::int64_t out_channels_;
  Parameter weight_;
  std::optional<Parameter> bias_;
  Tensor cached_input_;
  // Packed weight panels for the im2col GEMM. In training mode they are
  // re-packed every forward (weights move every step) into the same
  // retained storage; in eval mode the packing is reused until the
  // parameter's mutation counter moves (optimizer step, checkpoint load —
  // see Parameter::version()).
  ops::PackedA packed_weight_;
  std::uint64_t packed_weight_version_ = 0;
};

/// Plain rectified linear unit. The HPNN LockedActivation (src/hpnn)
/// replaces this module in obfuscated networks.
class ReLU : public Module {
 public:
  explicit ReLU(std::string name = "relu") : name_(std::move(name)) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Tensor cached_input_;
};

/// Max pooling with square window.
class MaxPool2d : public Module {
 public:
  MaxPool2d(std::int64_t kernel, std::int64_t stride,
            std::string name = "maxpool")
      : name_(std::move(name)), kernel_(kernel), stride_(stride) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return name_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }

 private:
  std::string name_;
  std::int64_t kernel_;
  std::int64_t stride_;
  Shape cached_input_shape_;
  std::vector<std::int64_t> cached_argmax_;
};

/// Average pooling with square window.
class AvgPool2d : public Module {
 public:
  AvgPool2d(std::int64_t kernel, std::int64_t stride,
            std::string name = "avgpool")
      : name_(std::move(name)), kernel_(kernel), stride_(stride) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return name_; }

  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }

 private:
  std::string name_;
  std::int64_t kernel_;
  std::int64_t stride_;
  Shape cached_input_shape_;
};

/// Flattens [N, C, H, W] -> [N, C*H*W].
class Flatten : public Module {
 public:
  explicit Flatten(std::string name = "flatten") : name_(std::move(name)) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Shape cached_input_shape_;
};

/// Global average pooling: [N, C, H, W] -> [N, C] (ResNet head).
class GlobalAvgPool : public Module {
 public:
  explicit GlobalAvgPool(std::string name = "gap") : name_(std::move(name)) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Shape cached_input_shape_;
};

/// Inverted dropout (train-time scaling); identity in eval mode.
class Dropout : public Module {
 public:
  Dropout(double p, std::uint64_t seed, std::string name = "dropout");

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  double p_;
  Rng rng_;
  Tensor cached_mask_;
};

}  // namespace hpnn::nn

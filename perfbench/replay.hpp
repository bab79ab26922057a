// Replay of the trusted device's datapath primitives from outside the
// device, at each CNN3 layer's shapes.
//
// The device's per-request interpreter is not instrumented, so the traced
// run replays what it does per MAC layer with the same public functions
// and the same schedule: quantize the layer input with its calibrated
// scale (hw::quantize_with_scale), then, per sample, im2col (ops::im2col),
// multiply on the MMU (hw::Mmu::matmul_i8, keyed) and drain the int32
// accumulators to float (acc × scale + bias, the device's epilogue
// arithmetic) in one fused pass that fans the batch out over the pool
// with per-chunk scratch, as TrustedDevice::exec_conv does; then max-pool
// (nn::MaxPool2d::forward). A conv pass's wall time is split among its
// three stages in proportion to their lane times. Layer inputs come from
// the owner's float model on the same images. The rows are labelled as
// replay; device.infer minus their sum is the interpreter's own cost.
#pragma once

#include <cstdint>

#include "artifact.hpp"

namespace perfbench {

struct ReplayTimes {
  // Median over repetitions of the per-forward-pass sum across layers, µs.
  double quantize_us = 0.0;
  double im2col_us = 0.0;
  double mmu_matmul_us = 0.0;
  double dequantize_us = 0.0;
  double maxpool_us = 0.0;

  double sum_us() const {
    return quantize_us + im2col_us + mmu_matmul_us + dequantize_us +
           maxpool_us;
  }
};

/// Replays one forward pass over `images` ([N, C, H, W]) `reps` times and
/// records every primitive call as a span under a "replay" root.
ReplayTimes replay_primitives(Artifact& artifact, const hpnn::Tensor& images,
                              int reps, Tracer& tracer);

}  // namespace perfbench

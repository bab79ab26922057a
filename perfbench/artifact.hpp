// The shared artifact every workload starts from, and the output oracle.
//
// Set-up is the owner's flow on a fixed seed: synthesize ColorShapes,
// train a sign-locked CNN3 (width 0.5) with key-dependent backprop,
// calibrate static activation scales, publish into a fresh ModelZoo and
// derive the model key through the keychain. The oracle then records,
// from a reference TrustedDevice on the scalar compute backend, the golden
// logit digest of every held-out request image (generated from the
// workload seed), so each answer the device or the daemon gives can be
// checked per request.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hpnn/attestation.hpp"
#include "hpnn/locked_model.hpp"
#include "hpnn/model_io.hpp"
#include "hpnn/zoo_store.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr const char* kModelId = "perfbench-cnn3";

struct Artifact {
  hpnn::obf::HpnnKey master;
  hpnn::obf::HpnnKey model_key;  // keychain-derived, what devices seal
  std::uint64_t schedule_seed = 0;
  /// The owner's trained float model (inputs for the primitive replay).
  std::unique_ptr<hpnn::obf::LockedModel> model;
  std::vector<float> activation_scales;
  std::unique_ptr<hpnn::obf::ModelZoo> zoo;
  /// The published artifact as a device downloads it from the zoo.
  hpnn::obf::PublishedModel published;
  hpnn::obf::AttestationChallenge challenge;
  double owner_test_accuracy = 0.0;
};

/// Runs the owner's flow into a fresh zoo directory `zoo_dir`.
Artifact build_artifact(const std::string& zoo_dir, Tracer& tracer);

/// Held-out request images with the golden answer for each.
class Oracle {
 public:
  /// Generates `count` held-out images from `seed` and records their golden
  /// logits on a reference device provisioned from `artifact`, running on
  /// the scalar compute backend.
  Oracle(const Artifact& artifact, std::uint64_t seed, std::int64_t count,
         Tracer& tracer);

  std::int64_t size() const { return static_cast<std::int64_t>(labels_.size()); }
  /// Image `i` as a [1, C, H, W] tensor.
  const hpnn::Tensor& image(std::int64_t i) const;
  /// Stacks images `indices` into one [N, C, H, W] batch.
  hpnn::Tensor batch(const std::vector<std::int64_t>& indices) const;
  /// True when `logits_row` (num_classes floats) is bit-for-bit the golden
  /// answer for image `i`.
  bool matches(std::int64_t i, const float* logits_row) const;
  /// Checks every row of a [N, classes] answer for images `indices`;
  /// returns the number of rows that matched.
  std::int64_t count_matches(const std::vector<std::int64_t>& indices,
                             const hpnn::Tensor& logits) const;
  std::int64_t golden_class(std::int64_t i) const;
  std::int64_t num_classes() const { return num_classes_; }

  /// Reference-device accuracy over the held-out images.
  double accuracy() const { return accuracy_; }
  /// Reference-device class agreement on the attestation challenge.
  double attest_agreement() const { return attest_agreement_; }
  bool attest_passed() const { return attest_passed_; }

 private:
  std::vector<hpnn::Tensor> images_;
  std::vector<std::int64_t> labels_;
  std::vector<std::string> digests_;
  std::vector<std::int64_t> classes_;
  std::int64_t num_classes_ = 0;
  double accuracy_ = 0.0;
  double attest_agreement_ = 0.0;
  bool attest_passed_ = false;
};

/// Device accuracy on held-out images must clear this floor (chance is
/// 0.10 on ten classes).
inline constexpr double kAccuracyFloor = 0.25;

}  // namespace perfbench

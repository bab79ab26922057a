#include "artifact.hpp"

#include <cstring>
#include <filesystem>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "data/synthetic.hpp"
#include "hpnn/calibration.hpp"
#include "hpnn/keychain.hpp"
#include "hpnn/owner.hpp"
#include "hw/device.hpp"
#include "tensor/backend.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

using namespace hpnn;

namespace {

// The artifact is the same in every run: only the request images depend on
// the workload seed. 100 images per class for 2 epochs trains CNN3 at width
// 0.5 clearly above chance (~0.38 test accuracy against 0.10).
constexpr std::uint64_t kOwnerSeed = 2020;
constexpr std::int64_t kTrainPerClass = 100;
constexpr std::int64_t kOwnerTestPerClass = 20;
constexpr std::int64_t kEpochs = 2;
constexpr std::int64_t kCalibrationImages = 128;
constexpr std::int64_t kChallengeProbes = 16;
// As the chaos serving harness sets it: a static-scale artifact agrees with
// the float reference on ~0.81 of make_challenge's random-normal probes,
// below the 0.9 default (a known program defect, see README.md).
constexpr double kMinAgreement = 0.6;

/// Switches the process to the scalar reference backend for its lifetime.
/// Golden answers are recorded on it, so a wrong but deterministic change
/// to a vectorized kernel or backend does not move the reference together
/// with the device under test (int8 results are bit-identical across
/// backends by the repository's conformance kit).
class ScalarReference {
 public:
  ScalarReference() : previous_(ops::backend().name()) {
    ops::set_backend("scalar");
  }
  ~ScalarReference() { ops::set_backend(previous_); }
  ScalarReference(const ScalarReference&) = delete;
  ScalarReference& operator=(const ScalarReference&) = delete;

 private:
  std::string previous_;
};

}  // namespace

Artifact build_artifact(const std::string& zoo_dir, Tracer& tracer) {
  Artifact a;
  data::SplitDataset split;
  {
    Tracer::Span span(tracer, "owner.synth");
    data::SyntheticConfig cfg;
    cfg.train_per_class = kTrainPerClass;
    cfg.test_per_class = kOwnerTestPerClass;
    cfg.seed = kOwnerSeed;
    split = data::make_dataset(data::SyntheticFamily::kColorShapes, cfg);
  }
  {
    Tracer::Span span(tracer, "owner.keychain");
    Rng rng(kOwnerSeed);
    a.master = obf::HpnnKey::random(rng);
    a.model_key = obf::derive_model_key(a.master, kModelId);
    a.schedule_seed = obf::derive_schedule_seed(a.master, kModelId);
  }
  {
    Tracer::Span span(tracer, "owner.train");
    models::ModelConfig mc;
    mc.in_channels = split.train.channels();
    mc.image_size = split.train.height();
    mc.num_classes = split.train.num_classes;
    mc.width_mult = 0.5;
    mc.init_seed = kOwnerSeed + 1;
    a.model = std::make_unique<obf::LockedModel>(
        models::Architecture::kCnn3, mc, a.model_key,
        obf::Scheduler(a.schedule_seed));
    obf::OwnerTrainOptions opts;
    opts.epochs = kEpochs;
    a.owner_test_accuracy =
        obf::train_locked_model(*a.model, split.train, split.test, opts)
            .test_accuracy;
  }
  {
    Tracer::Span span(tracer, "owner.calibrate");
    std::vector<std::size_t> idx(kCalibrationImages);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      idx[i] = i * static_cast<std::size_t>(split.train.size()) / idx.size();
    }
    a.activation_scales = obf::calibrate_activation_scales(
        *a.model, data::subset(split.train, idx).images);
  }
  {
    Tracer::Span span(tracer, "zoo.publish");
    std::filesystem::remove_all(zoo_dir);
    a.zoo = std::make_unique<obf::ModelZoo>(zoo_dir);
    a.zoo->publish(kModelId, *a.model, a.activation_scales);
    a.published = a.zoo->fetch(kModelId);
  }
  {
    Tracer::Span span(tracer, "owner.challenge");
    Rng probe_rng(kOwnerSeed + 2);
    a.challenge = obf::make_challenge(*a.model, kChallengeProbes, probe_rng);
    a.challenge.min_agreement = kMinAgreement;
    // The owner holds the key, so it records the exact int8 probe logits a
    // correctly keyed device must reproduce (the serving supervisor's
    // digest witness).
    const ScalarReference reference;
    hw::TrustedDevice golden(a.model_key, a.schedule_seed);
    golden.load_model(a.published);
    a.challenge.logit_digest_hex =
        obf::logit_digest_hex(golden.infer(a.challenge.probes));
  }
  return a;
}

Oracle::Oracle(const Artifact& artifact, std::uint64_t seed,
               std::int64_t count, Tracer& tracer) {
  Tracer::Span span(tracer, "oracle.golden");
  data::SyntheticConfig cfg;
  cfg.train_per_class = 1;
  cfg.test_per_class = (count + data::kSyntheticClasses - 1) /
                       data::kSyntheticClasses;
  cfg.seed = seed ^ 0x5eedf00dULL;
  const data::Dataset held_out =
      data::make_dataset(data::SyntheticFamily::kColorShapes, cfg).test;

  const ScalarReference scalar;
  hw::TrustedDevice reference(artifact.model_key, artifact.schedule_seed);
  reference.load_model(artifact.published);
  const obf::AttestationResult attest =
      reference.self_test(artifact.challenge);
  attest_agreement_ = attest.agreement;
  attest_passed_ = attest.passed;

  const std::int64_t sample = held_out.channels() * held_out.height() *
                              held_out.width();
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    Tensor img(Shape{1, held_out.channels(), held_out.height(),
                     held_out.width()});
    std::memcpy(img.data(), held_out.images.data() + i * sample,
                static_cast<std::size_t>(sample) * sizeof(float));
    // Golden answers come from the image served alone; the benchmark
    // serves it alone and inside batches, which a calibrated artifact
    // answers bit-identically.
    const Tensor logits = reference.infer(img);
    num_classes_ = logits.dim(1);
    digests_.push_back(obf::logit_digest_hex(logits));
    classes_.push_back(ops::argmax_rows(logits).front());
    labels_.push_back(held_out.labels[static_cast<std::size_t>(i)]);
    correct += classes_.back() == labels_.back() ? 1 : 0;
    images_.push_back(std::move(img));
  }
  accuracy_ = static_cast<double>(correct) / static_cast<double>(count);
}

const Tensor& Oracle::image(std::int64_t i) const {
  return images_.at(static_cast<std::size_t>(i));
}

Tensor Oracle::batch(const std::vector<std::int64_t>& indices) const {
  const Shape& one = images_.front().shape();
  const std::int64_t sample = one.dim(1) * one.dim(2) * one.dim(3);
  Tensor out(Shape{static_cast<std::int64_t>(indices.size()), one.dim(1),
                   one.dim(2), one.dim(3)});
  for (std::size_t r = 0; r < indices.size(); ++r) {
    std::memcpy(out.data() + static_cast<std::int64_t>(r) * sample,
                image(indices[r]).data(),
                static_cast<std::size_t>(sample) * sizeof(float));
  }
  return out;
}

bool Oracle::matches(std::int64_t i, const float* logits_row) const {
  Tensor row(Shape{1, num_classes_});
  std::memcpy(row.data(), logits_row,
              static_cast<std::size_t>(num_classes_) * sizeof(float));
  return obf::logit_digest_hex(row) == digests_.at(static_cast<std::size_t>(i));
}

std::int64_t Oracle::count_matches(const std::vector<std::int64_t>& indices,
                                   const Tensor& logits) const {
  if (logits.rank() != 2 ||
      logits.dim(0) != static_cast<std::int64_t>(indices.size()) ||
      logits.dim(1) != num_classes_) {
    return 0;
  }
  std::int64_t ok = 0;
  for (std::size_t r = 0; r < indices.size(); ++r) {
    ok += matches(indices[r],
                  logits.data() + static_cast<std::int64_t>(r) * num_classes_)
              ? 1
              : 0;
  }
  return ok;
}

std::int64_t Oracle::golden_class(std::int64_t i) const {
  return classes_.at(static_cast<std::size_t>(i));
}

}  // namespace perfbench

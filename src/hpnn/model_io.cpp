#include "hpnn/model_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "core/error.hpp"
#include "core/serialize.hpp"
#include "core/sha256.hpp"
#include "hpnn/lock_scheme.hpp"

namespace hpnn::obf {

namespace {

constexpr std::uint32_t kMagic = 0x4850'4E4Eu;  // "HPNN"
// v2 appended a SHA-256 integrity digest over the payload; v3 added the
// optional static-quantization activation scales; v4 pads every float
// array to a 64-byte-aligned file offset so an mmap'd artifact can be
// parsed into spans with zero float copies (see ArtifactView); v5 adds the
// locking-scheme tag + payload after the architecture header (read paths
// fail closed on tags with no registered LockScheme).
constexpr std::uint32_t kVersion = 5;

// File offset at which the payload begins: magic (4) + version (4) +
// payload length prefix (8). Both the writer (building the payload in a
// buffer) and the reader (parsing the payload in place) add this bias to
// their payload-relative positions, so alignment padding is computed
// against real file offsets.
constexpr std::uint64_t kPayloadFileOffset = 16;

// Cache-line alignment for tensor data: the packed-GEMM kernels load
// 32-byte vectors, and 64 keeps mapped panels friendly to both.
constexpr std::size_t kFloatAlignment = 64;

void write_named_tensors(
    BinaryWriter& w,
    const std::vector<PublishedModel::NamedTensor>& tensors) {
  w.write_u64(tensors.size());
  for (const auto& t : tensors) {
    w.write_string(t.name);
    w.write_i64_vector(t.value.shape().dims());
    w.write_f32_array_aligned(
        std::vector<float>(t.value.data(), t.value.data() + t.value.numel()),
        kFloatAlignment, kPayloadFileOffset);
  }
}

// Declared tensor extents are untrusted: a hostile artifact can carry a
// self-consistent digest, so every dimension must be validated before it
// reaches Shape (which treats bad dims as programmer error) or an
// allocation.
constexpr std::size_t kMaxTensorRank = 8;
constexpr std::int64_t kMaxTensorElems = std::int64_t{1} << 28;  // 1 GiB f32
constexpr std::uint64_t kMaxTensorCount = 100000;

Shape checked_shape(std::vector<std::int64_t> dims,
                    const std::string& context) {
  if (dims.size() > kMaxTensorRank) {
    throw SerializationError(context + ": implausible tensor rank " +
                             std::to_string(dims.size()));
  }
  std::int64_t numel = 1;
  for (const std::int64_t d : dims) {
    if (d < 0 || d > kMaxTensorElems) {
      throw SerializationError(context + ": corrupt tensor dimension " +
                               std::to_string(d));
    }
    numel *= d == 0 ? 1 : d;
    if (numel > kMaxTensorElems) {
      throw SerializationError(context + ": declared tensor size too large");
    }
  }
  return Shape{std::move(dims)};
}

std::vector<PublishedModel::NamedTensor> read_named_tensors(BinaryReader& r) {
  const std::uint64_t count = r.read_u64();
  if (count > kMaxTensorCount) {
    throw SerializationError("implausible tensor count in artifact");
  }
  std::vector<PublishedModel::NamedTensor> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    PublishedModel::NamedTensor t;
    t.name = r.read_string();
    const Shape shape = checked_shape(r.read_i64_vector(), "tensor " + t.name);
    auto values = r.read_f32_array_aligned(kFloatAlignment, kPayloadFileOffset);
    if (static_cast<std::int64_t>(values.size()) != shape.numel()) {
      throw SerializationError("tensor " + t.name +
                               " data does not match its shape");
    }
    t.value = Tensor(shape, std::move(values));
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<ArtifactView::TensorView> read_tensor_views(BinaryReader& r) {
  const std::uint64_t count = r.read_u64();
  if (count > kMaxTensorCount) {
    throw SerializationError("implausible tensor count in artifact");
  }
  std::vector<ArtifactView::TensorView> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ArtifactView::TensorView t;
    t.name = r.read_string();
    t.shape = checked_shape(r.read_i64_vector(), "tensor " + t.name);
    t.values = r.view_f32_array_aligned(kFloatAlignment, kPayloadFileOffset);
    if (static_cast<std::int64_t>(t.values.size()) != t.shape.numel()) {
      throw SerializationError("tensor " + t.name +
                               " data does not match its shape");
    }
    out.push_back(std::move(t));
  }
  return out;
}

struct ArtifactHeader {
  models::Architecture arch;
  std::int64_t in_channels;
  std::int64_t image_size;
  std::int64_t num_classes;
  double width_mult;
};

ArtifactHeader read_artifact_header(BinaryReader& r) {
  ArtifactHeader h;
  try {
    h.arch = models::arch_from_name(r.read_string());
  } catch (const Error& e) {
    throw SerializationError(std::string("artifact architecture: ") +
                             e.what());
  }
  h.in_channels = r.read_i64();
  h.image_size = r.read_i64();
  h.num_classes = r.read_i64();
  h.width_mult = r.read_f64();
  if (h.in_channels <= 0 || h.image_size <= 0 || h.num_classes <= 0 ||
      h.width_mult <= 0.0) {
    throw SerializationError("corrupt artifact header");
  }
  return h;
}

void check_outer_header(BinaryReader& outer) {
  if (outer.read_u32() != kMagic) {
    throw SerializationError("not an HPNN model artifact (bad magic)");
  }
  const std::uint32_t version = outer.read_u32();
  if (version != kVersion) {
    throw SerializationError("unsupported artifact version " +
                             std::to_string(version));
  }
}

// Sanity bounds for the scheme fields: real tags are short identifiers and
// real payloads are small public material (a salt, a nonce). Oversized
// values in either field mean corruption, rejected before the registry
// lookup can embed megabytes of garbage into an error message.
constexpr std::size_t kMaxSchemeTagBytes = 64;
constexpr std::size_t kMaxSchemePayloadBytes = 4096;

struct SchemeFields {
  std::string tag;
  std::vector<std::uint8_t> payload;
};

/// Reads and validates the v5 scheme fields. Fail-closed on every axis: an
/// implausible tag or payload size, a tag with no registered scheme, and a
/// payload the tagged scheme's validator rejects are all SerializationError.
SchemeFields read_scheme_fields(BinaryReader& r) {
  SchemeFields f;
  f.tag = r.read_string();
  if (f.tag.empty() || f.tag.size() > kMaxSchemeTagBytes) {
    throw SerializationError("corrupt lock-scheme tag in artifact");
  }
  f.payload = r.read_u8_vector();
  if (f.payload.size() > kMaxSchemePayloadBytes) {
    throw SerializationError("implausible lock-scheme payload size " +
                             std::to_string(f.payload.size()));
  }
  scheme_by_tag(f.tag).validate_payload(f.payload);
  return f;
}

void check_scales(std::span<const float> scales) {
  for (const float s : scales) {
    if (!(s > 0.0f) || !std::isfinite(s)) {
      throw SerializationError("corrupt activation scale in artifact");
    }
  }
}

}  // namespace

models::ModelConfig PublishedModel::model_config(
    std::uint64_t init_seed) const {
  models::ModelConfig cfg;
  cfg.in_channels = in_channels;
  cfg.image_size = image_size;
  cfg.num_classes = num_classes;
  cfg.width_mult = width_mult;
  cfg.init_seed = init_seed;
  return cfg;
}

models::ModelConfig ArtifactView::model_config(std::uint64_t init_seed) const {
  models::ModelConfig cfg;
  cfg.in_channels = in_channels;
  cfg.image_size = image_size;
  cfg.num_classes = num_classes;
  cfg.width_mult = width_mult;
  cfg.init_seed = init_seed;
  return cfg;
}

PublishedModel ArtifactView::materialize() const {
  PublishedModel m;
  m.arch = arch;
  m.in_channels = in_channels;
  m.image_size = image_size;
  m.num_classes = num_classes;
  m.width_mult = width_mult;
  m.scheme_tag = scheme_tag;
  m.scheme_payload = scheme_payload;
  m.parameters.reserve(parameters.size());
  for (const auto& t : parameters) {
    m.parameters.push_back(
        {t.name, Tensor(t.shape,
                        std::vector<float>(t.values.begin(), t.values.end()))});
  }
  m.buffers.reserve(buffers.size());
  for (const auto& t : buffers) {
    m.buffers.push_back(
        {t.name, Tensor(t.shape,
                        std::vector<float>(t.values.begin(), t.values.end()))});
  }
  m.activation_scales.assign(activation_scales.begin(),
                             activation_scales.end());
  return m;
}

PublishedModel snapshot_model(const LockedModel& model,
                              const std::vector<float>& activation_scales) {
  PublishedModel m;
  m.arch = model.architecture();
  const auto& cfg = model.config();
  m.in_channels = cfg.in_channels;
  m.image_size = cfg.image_size;
  m.num_classes = cfg.num_classes;
  m.width_mult = cfg.width_mult;
  auto& net = const_cast<nn::Sequential&>(model.network());
  for (const auto* p : nn::parameters_of(net)) {
    m.parameters.push_back({p->name, p->value});
  }
  for (const auto& [name, tensor] : nn::buffers_of(net)) {
    m.buffers.push_back({name, *tensor});
  }
  m.activation_scales = activation_scales;
  return m;
}

void publish_artifact(std::ostream& os, const PublishedModel& artifact) {
  // Build the payload in memory so an integrity digest can be appended —
  // a model-zoo download is untrusted input on the consumer side.
  std::ostringstream payload_stream;
  {
    BinaryWriter w(payload_stream);
    w.write_string(models::arch_name(artifact.arch));
    w.write_i64(artifact.in_channels);
    w.write_i64(artifact.image_size);
    w.write_i64(artifact.num_classes);
    w.write_f64(artifact.width_mult);
    w.write_string(artifact.scheme_tag);
    w.write_u8_vector(artifact.scheme_payload);
    write_named_tensors(w, artifact.parameters);
    write_named_tensors(w, artifact.buffers);
    w.write_f32_array_aligned(artifact.activation_scales, kFloatAlignment,
                              kPayloadFileOffset);
  }
  const std::string payload = payload_stream.str();
  const Sha256Digest digest = Sha256::hash(payload);

  BinaryWriter w(os);
  w.write_u32(kMagic);
  w.write_u32(kVersion);
  w.write_string(payload);
  w.write_u8_vector(
      std::vector<std::uint8_t>(digest.begin(), digest.end()));
}

void publish_model(std::ostream& os, const LockedModel& model,
                   const std::vector<float>& activation_scales) {
  publish_artifact(os, snapshot_model(model, activation_scales));
}

PublishedModel read_published_model(std::istream& is) {
  BinaryReader outer(is);
  check_outer_header(outer);
  const std::string payload = outer.read_string();
  const auto digest_bytes = outer.read_u8_vector();
  if (digest_bytes.size() != 32) {
    throw SerializationError("artifact integrity digest malformed");
  }
  const Sha256Digest digest = Sha256::hash(payload);
  if (!std::equal(digest.begin(), digest.end(), digest_bytes.begin())) {
    throw SerializationError(
        "artifact integrity check failed (corrupted or tampered)");
  }

  std::istringstream payload_stream{payload};
  BinaryReader r(payload_stream);
  const ArtifactHeader h = read_artifact_header(r);
  PublishedModel m;
  m.arch = h.arch;
  m.in_channels = h.in_channels;
  m.image_size = h.image_size;
  m.num_classes = h.num_classes;
  m.width_mult = h.width_mult;
  SchemeFields scheme = read_scheme_fields(r);
  m.scheme_tag = std::move(scheme.tag);
  m.scheme_payload = std::move(scheme.payload);
  m.parameters = read_named_tensors(r);
  m.buffers = read_named_tensors(r);
  m.activation_scales =
      r.read_f32_array_aligned(kFloatAlignment, kPayloadFileOffset);
  check_scales(m.activation_scales);
  return m;
}

ArtifactView view_published_model(core::ByteView bytes) {
  BinaryReader outer(bytes);
  check_outer_header(outer);
  const core::ByteView payload = outer.view_u8_array();
  const core::ByteView digest_bytes = outer.view_u8_array();
  if (digest_bytes.size() != 32) {
    throw SerializationError("artifact integrity digest malformed");
  }
  // Digest over the exact bytes the spans below will alias: verification
  // and parsing cannot diverge.
  const Sha256Digest digest = Sha256::hash(payload);
  if (!std::equal(digest.begin(), digest.end(), digest_bytes.begin())) {
    throw SerializationError(
        "artifact integrity check failed (corrupted or tampered)");
  }

  BinaryReader r(payload);
  const ArtifactHeader h = read_artifact_header(r);
  ArtifactView view;
  view.arch = h.arch;
  view.in_channels = h.in_channels;
  view.image_size = h.image_size;
  view.num_classes = h.num_classes;
  view.width_mult = h.width_mult;
  SchemeFields scheme = read_scheme_fields(r);
  view.scheme_tag = std::move(scheme.tag);
  view.scheme_payload = std::move(scheme.payload);
  view.parameters = read_tensor_views(r);
  view.buffers = read_tensor_views(r);
  view.activation_scales =
      r.view_f32_array_aligned(kFloatAlignment, kPayloadFileOffset);
  check_scales(view.activation_scales);
  return view;
}

ArtifactView map_published_model(core::MappedFile file) {
  ArtifactView view = view_published_model(file.bytes());
  // The spans alias the mapping; hand the mapping to the view so they stay
  // valid for its lifetime (MappedFile moves keep addresses stable).
  view.file_ = std::move(file);
  return view;
}

ArtifactView map_published_model_file(const std::string& path) {
  return map_published_model(core::MappedFile(path));
}

void load_weights(const PublishedModel& artifact, nn::Module& net) {
  const auto params = nn::parameters_of(net);
  if (params.size() != artifact.parameters.size()) {
    throw SerializationError(
        "artifact parameter count does not match architecture (" +
        std::to_string(artifact.parameters.size()) + " vs " +
        std::to_string(params.size()) + ")");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto& src = artifact.parameters[i];
    if (src.name != params[i]->name ||
        !(src.value.shape() == params[i]->value.shape())) {
      throw SerializationError("artifact parameter mismatch at " + src.name);
    }
    params[i]->assign_value(src.value);
  }
  const auto buffers = nn::buffers_of(net);
  if (buffers.size() != artifact.buffers.size()) {
    throw SerializationError("artifact buffer count mismatch");
  }
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const auto& src = artifact.buffers[i];
    if (src.name != buffers[i].first ||
        !(src.value.shape() == buffers[i].second->shape())) {
      throw SerializationError("artifact buffer mismatch at " + src.name);
    }
    *buffers[i].second = src.value;
  }
}

std::unique_ptr<nn::Sequential> instantiate_baseline(
    const PublishedModel& artifact) {
  auto cfg = artifact.model_config();
  cfg.activation = models::plain_relu_factory();
  auto net = models::build(artifact.arch, cfg);
  load_weights(artifact, *net);
  return net;
}

std::unique_ptr<LockedModel> instantiate_locked(const PublishedModel& artifact,
                                                const HpnnKey& key,
                                                const Scheduler& scheduler) {
  if (artifact.scheme_tag != kSignLockTag) {
    // Applying sign masks over another scheme's (e.g. encrypted) weights
    // would silently compute garbage; refuse instead.
    throw KeyError("artifact lock scheme '" + artifact.scheme_tag +
                   "' does not use sign-lock masks; route through "
                   "LockScheme::make_evaluator");
  }
  auto model = std::make_unique<LockedModel>(
      artifact.arch, artifact.model_config(), key, scheduler);
  load_weights(artifact, model->network());
  return model;
}

void publish_model_file(const std::string& path, const LockedModel& model) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw SerializationError("cannot open " + path + " for writing");
  }
  publish_model(os, model);
}

PublishedModel read_published_model_file(const std::string& path) {
  // Map + parse in one pass over one set of bytes (no hash-then-reopen).
  return map_published_model_file(path).materialize();
}

}  // namespace hpnn::obf

#include "data/dataset.hpp"

#include <algorithm>
#include <fstream>

#include "core/error.hpp"
#include "core/serialize.hpp"

namespace hpnn::data {

void Dataset::validate() const {
  HPNN_CHECK(images.rank() == 4, name + ": images must be NCHW");
  HPNN_CHECK(images.dim(0) == static_cast<std::int64_t>(labels.size()),
             name + ": image/label count mismatch");
  HPNN_CHECK(num_classes > 0, name + ": num_classes must be positive");
  for (const auto l : labels) {
    HPNN_CHECK(l >= 0 && l < num_classes, name + ": label out of range");
  }
}

Dataset subset(const Dataset& d, const std::vector<std::size_t>& indices) {
  const std::int64_t sample = d.images.numel() / std::max<std::int64_t>(
                                                     d.images.dim(0), 1);
  std::vector<std::int64_t> dims = d.images.shape().dims();
  dims[0] = static_cast<std::int64_t>(indices.size());

  Dataset out;
  out.name = d.name;
  out.num_classes = d.num_classes;
  out.images = Tensor{Shape(dims)};
  out.labels.resize(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    HPNN_CHECK(indices[i] < d.labels.size(), "subset: index out of range");
    std::copy(
        d.images.data() + static_cast<std::int64_t>(indices[i]) * sample,
        d.images.data() + static_cast<std::int64_t>(indices[i] + 1) * sample,
        out.images.data() + static_cast<std::int64_t>(i) * sample);
    out.labels[i] = d.labels[indices[i]];
  }
  return out;
}

Dataset thief_subset(const Dataset& d, double alpha, Rng& rng) {
  HPNN_CHECK(alpha >= 0.0 && alpha <= 1.0,
             "thief fraction must be within [0, 1]");
  d.validate();

  // Group indices per class, shuffle each group, take ceil(alpha * |group|).
  std::vector<std::vector<std::size_t>> per_class(
      static_cast<std::size_t>(d.num_classes));
  for (std::size_t i = 0; i < d.labels.size(); ++i) {
    per_class[static_cast<std::size_t>(d.labels[i])].push_back(i);
  }
  std::vector<std::size_t> chosen;
  for (auto& group : per_class) {
    const auto perm = rng.permutation(group.size());
    const auto take = static_cast<std::size_t>(
        alpha * static_cast<double>(group.size()) + 0.5);
    for (std::size_t i = 0; i < take; ++i) {
      chosen.push_back(group[perm[i]]);
    }
  }
  std::sort(chosen.begin(), chosen.end());
  Dataset out = subset(d, chosen);
  out.name = d.name + "-thief";
  return out;
}

std::vector<std::int64_t> class_histogram(const Dataset& d) {
  std::vector<std::int64_t> hist(static_cast<std::size_t>(d.num_classes), 0);
  for (const auto l : d.labels) {
    ++hist[static_cast<std::size_t>(l)];
  }
  return hist;
}

namespace {
constexpr std::uint32_t kDatasetMagic = 0x4850'4453u;  // "HPDS"
}

void save_dataset(std::ostream& os, const Dataset& d) {
  d.validate();
  BinaryWriter w(os);
  w.write_u32(kDatasetMagic);
  w.write_string(d.name);
  w.write_i64(d.num_classes);
  w.write_i64_vector(d.images.shape().dims());
  w.write_f32_vector(std::vector<float>(
      d.images.data(), d.images.data() + d.images.numel()));
  w.write_i64_vector(d.labels);
}

Dataset load_dataset(std::istream& is) {
  BinaryReader r(is);
  if (r.read_u32() != kDatasetMagic) {
    throw SerializationError("not an HPNN dataset file (bad magic)");
  }
  Dataset d;
  d.name = r.read_string();
  d.num_classes = r.read_i64();
  // Untrusted extents: check them before they reach Shape, which treats
  // a bad rank or a negative extent as a programmer error.
  const std::vector<std::int64_t> dims = r.read_i64_vector();
  if (dims.size() != 4 ||
      std::any_of(dims.begin(), dims.end(),
                  [](std::int64_t d) { return d < 0; })) {
    throw SerializationError("corrupt dataset image tensor");
  }
  const Shape shape{dims};
  auto values = r.read_f32_vector();
  if (static_cast<std::int64_t>(values.size()) != shape.numel()) {
    throw SerializationError("corrupt dataset image tensor");
  }
  d.images = Tensor(shape, std::move(values));
  d.labels = r.read_i64_vector();
  try {
    d.validate();
  } catch (const Error& e) {
    throw SerializationError(std::string("corrupt dataset: ") + e.what());
  }
  return d;
}

void save_dataset_file(const std::string& path, const Dataset& d) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw SerializationError("cannot open " + path + " for writing");
  }
  save_dataset(os, d);
}

Dataset load_dataset_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw SerializationError("cannot open " + path);
  }
  return load_dataset(is);
}

}  // namespace hpnn::data

// Tensor shape: an ordered list of non-negative extents.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace hpnn {

/// Shape of a row-major dense tensor. Immutable value type. The extents
/// are stored inline, so building or copying a Shape never allocates.
class Shape {
 public:
  /// The largest rank a Shape holds; a longer extent list is an
  /// InvariantError (untrusted readers check ranks before they get here).
  static constexpr std::size_t kMaxRank = 8;

  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims);
  explicit Shape(std::vector<std::int64_t> dims);

  /// Number of dimensions.
  std::size_t rank() const { return rank_; }

  /// Extent of dimension `i`; supports negative indices Python-style.
  std::int64_t dim(std::int64_t i) const;

  /// Total number of elements (1 for rank-0).
  std::int64_t numel() const;

  std::vector<std::int64_t> dims() const {
    return {dims_.begin(), dims_.begin() + static_cast<std::ptrdiff_t>(rank_)};
  }

  bool operator==(const Shape& other) const = default;

  /// Row-major strides (in elements).
  std::vector<std::int64_t> strides() const;

  /// Human-readable form, e.g. "[2, 3, 4]".
  std::string to_string() const;

 private:
  void assign(const std::int64_t* dims, std::size_t rank);

  std::array<std::int64_t, kMaxRank> dims_{};  // unused extents stay 0
  std::size_t rank_ = 0;
};

}  // namespace hpnn

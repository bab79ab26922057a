#include "tensor/shape.hpp"

#include <algorithm>
#include <sstream>

#include "core/error.hpp"

namespace hpnn {

Shape::Shape(std::initializer_list<std::int64_t> dims) {
  assign(dims.begin(), dims.size());
}

Shape::Shape(std::vector<std::int64_t> dims) {
  assign(dims.data(), dims.size());
}

void Shape::assign(const std::int64_t* dims, std::size_t rank) {
  HPNN_CHECK(rank <= kMaxRank, "shape rank " + std::to_string(rank) +
                                   " exceeds " + std::to_string(kMaxRank));
  std::copy(dims, dims + rank, dims_.begin());
  rank_ = rank;
  for (std::size_t i = 0; i < rank_; ++i) {
    HPNN_CHECK(dims_[i] >= 0,
               "shape dims must be non-negative, got " + to_string());
  }
}

std::int64_t Shape::dim(std::int64_t i) const {
  const auto r = static_cast<std::int64_t>(rank());
  if (i < 0) {
    i += r;
  }
  HPNN_CHECK(i >= 0 && i < r,
             "dim index " + std::to_string(i) + " out of range for rank " +
                 std::to_string(r));
  return dims_[static_cast<std::size_t>(i)];
}

std::int64_t Shape::numel() const {
  std::int64_t n = 1;
  for (std::size_t i = 0; i < rank_; ++i) {
    n *= dims_[i];
  }
  return n;
}

std::vector<std::int64_t> Shape::strides() const {
  std::vector<std::int64_t> s(rank(), 1);
  for (std::size_t i = rank(); i-- > 1;) {
    s[i - 1] = s[i] * dims_[i];
  }
  return s;
}

std::string Shape::to_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < rank_; ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << dims_[i];
  }
  os << ']';
  return os.str();
}

}  // namespace hpnn

#include "hpnn/key.hpp"

#include <bit>

#include "core/error.hpp"

namespace hpnn::obf {

HpnnKey HpnnKey::random(Rng& rng) {
  HpnnKey key;
  for (auto& w : key.words_) {
    w = rng();
  }
  return key;
}

HpnnKey HpnnKey::from_hex(const std::string& hex) {
  if (hex.size() != kBits / 4) {
    throw KeyError("HPNN key hex must be " + std::to_string(kBits / 4) +
                   " digits, got " + std::to_string(hex.size()));
  }
  HpnnKey key;
  for (std::size_t w = 0; w < 4; ++w) {
    std::uint64_t value = 0;
    for (std::size_t d = 0; d < 16; ++d) {
      const char c = hex[w * 16 + d];
      std::uint64_t nibble = 0;
      if (c >= '0' && c <= '9') {
        nibble = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        nibble = static_cast<std::uint64_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        nibble = static_cast<std::uint64_t>(c - 'A' + 10);
      } else {
        throw KeyError("invalid hex digit in HPNN key");
      }
      value = (value << 4) | nibble;
    }
    key.words_[3 - w] = value;  // most-significant word first in the string
  }
  return key;
}

std::string HpnnKey::to_hex() const {
  std::string out(kBits / 4, '0');
  write_hex(std::span<char, kBits / 4>(out.data(), kBits / 4));
  return out;
}

void HpnnKey::write_hex(std::span<char, kBits / 4> out) const {
  static const char* kDigits = "0123456789abcdef";
  for (std::size_t w = 0; w < 4; ++w) {
    const std::uint64_t value = words_[3 - w];
    for (std::size_t d = 0; d < 16; ++d) {
      out[w * 16 + d] =
          kDigits[(value >> (4 * (15 - d))) & 0xF];
    }
  }
}

bool HpnnKey::bit(std::size_t i) const {
  HPNN_CHECK(i < kBits, "key bit index out of range");
  return (words_[i / 64] >> (i % 64)) & 1;
}

void HpnnKey::set_bit(std::size_t i, bool v) {
  HPNN_CHECK(i < kBits, "key bit index out of range");
  const std::uint64_t mask = std::uint64_t{1} << (i % 64);
  if (v) {
    words_[i / 64] |= mask;
  } else {
    words_[i / 64] &= ~mask;
  }
}

void HpnnKey::flip_bit(std::size_t i) {
  HPNN_CHECK(i < kBits, "key bit index out of range");
  words_[i / 64] ^= std::uint64_t{1} << (i % 64);
}

std::size_t HpnnKey::hamming_distance(const HpnnKey& other) const {
  std::size_t d = 0;
  for (std::size_t w = 0; w < 4; ++w) {
    d += static_cast<std::size_t>(std::popcount(words_[w] ^ other.words_[w]));
  }
  return d;
}

std::size_t HpnnKey::popcount() const {
  std::size_t d = 0;
  for (const auto w : words_) {
    d += static_cast<std::size_t>(std::popcount(w));
  }
  return d;
}

}  // namespace hpnn::obf

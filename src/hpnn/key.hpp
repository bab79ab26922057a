// The secret HPNN key (Sec. III-B/III-D2 of the paper).
//
// The key is 256 bits — one bit per accumulator unit of the TPU-like
// trusted hardware. Key bit k gives lock factor L = (-1)^k: k=0 keeps a
// neuron's MAC, k=1 flips its sign.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "core/rng.hpp"

namespace hpnn::obf {

class HpnnKey {
 public:
  static constexpr std::size_t kBits = 256;

  /// All-zero key: every lock factor is +1, i.e. the locked network
  /// degenerates to the baseline. Useful as a control in tests.
  HpnnKey() = default;

  /// Uniformly random key.
  static HpnnKey random(Rng& rng);

  /// Parses a 64-hex-digit string (as produced by to_hex). Throws KeyError.
  static HpnnKey from_hex(const std::string& hex);

  /// 64 lowercase hex digits, most-significant word first.
  std::string to_hex() const;
  /// The same digits into a caller's buffer (no allocation).
  void write_hex(std::span<char, kBits / 4> out) const;

  bool bit(std::size_t i) const;
  void set_bit(std::size_t i, bool v);
  void flip_bit(std::size_t i);

  /// Lock factor L = (-1)^{k_i}: +1 if the bit is 0, -1 if it is 1 (Eq. 2).
  float lock_factor(std::size_t i) const { return bit(i) ? -1.0f : 1.0f; }

  /// Number of differing bits.
  std::size_t hamming_distance(const HpnnKey& other) const;

  /// Number of set bits.
  std::size_t popcount() const;

  bool operator==(const HpnnKey& other) const = default;

 private:
  std::array<std::uint64_t, 4> words_{};
};

}  // namespace hpnn::obf

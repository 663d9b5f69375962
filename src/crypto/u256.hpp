// 256-bit unsigned integer with 4x64-bit limbs.
//
// The building block for secp256k1 field and scalar arithmetic. Plain value
// semantics; all operations are branch-light and allocation-free.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.hpp"

namespace fides::crypto {

struct U256 {
  /// Little-endian limbs: w[0] is the least significant 64 bits.
  std::array<std::uint64_t, 4> w{};

  constexpr U256() = default;
  constexpr explicit U256(std::uint64_t v) : w{v, 0, 0, 0} {}
  static constexpr U256 from_limbs(std::uint64_t w0, std::uint64_t w1, std::uint64_t w2,
                                   std::uint64_t w3) {
    U256 x;
    x.w = {w0, w1, w2, w3};
    return x;
  }

  friend constexpr bool operator==(const U256&, const U256&) = default;

  bool is_zero() const { return (w[0] | w[1] | w[2] | w[3]) == 0; }
  bool bit(int i) const { return (w[i / 64] >> (i % 64)) & 1; }
  /// Index of highest set bit, or -1 if zero.
  int bit_length() const;

  /// Big-endian 32-byte encoding (the canonical wire form for keys/scalars).
  std::array<std::uint8_t, 32> to_bytes_be() const;
  static U256 from_bytes_be(BytesView b);  ///< b.size() must be 32

  std::string hex() const;
  static std::optional<U256> from_hex(std::string_view h);
};

/// a < b as 256-bit unsigned integers.
bool u256_less(const U256& a, const U256& b);

/// dst = a + b; returns carry-out (0/1).
std::uint64_t u256_add(U256& dst, const U256& a, const U256& b);

/// dst = a - b; returns borrow-out (0/1).
std::uint64_t u256_sub(U256& dst, const U256& a, const U256& b);

/// 512-bit product a*b, little-endian limbs.
std::array<std::uint64_t, 8> u256_mul_wide(const U256& a, const U256& b);

/// a mod m computed by binary long division. Slow path: used only at
/// context setup and for reducing hash outputs; hot-path multiplication goes
/// through the field types (field.hpp, secp256k1_field.hpp).
U256 u256_mod(const U256& a, const U256& m);

/// (hi:lo) mod m where hi:lo is a 512-bit value.
U256 u512_mod(const std::array<std::uint64_t, 8>& v, const U256& m);

}  // namespace fides::crypto

// Modular arithmetic in Montgomery form.
//
// One `MontgomeryField` instance wraps one odd modulus. Fides instantiates it
// once, for the secp256k1 group order n (Schnorr and CoSi scalars); the base
// field mod p has its own pseudo-Mersenne type in secp256k1_field.hpp. It
// also serves as the tests' independent oracle for that type. Elements are
// kept in Montgomery representation; multiplication uses the CIOS (coarsely
// integrated operand scanning) algorithm with 4x64-bit limbs.
#pragma once

#include "crypto/u256.hpp"

namespace fides::crypto {

/// A field element, always fully reduced. Its representation belongs to the
/// field that produced it (Montgomery form for MontgomeryField, the plain
/// integer for Secp256k1Field); mixing fields is a programming error.
struct Fe {
  U256 v;

  friend constexpr bool operator==(const Fe&, const Fe&) = default;
};

class MontgomeryField {
 public:
  /// Precomputes R mod m, R^2 mod m, and -m^{-1} mod 2^64. `modulus` must be
  /// odd and > 1.
  explicit MontgomeryField(const U256& modulus);

  const U256& modulus() const { return m_; }

  Fe zero() const { return Fe{}; }
  Fe one() const { return r_; }  // R mod m == Montgomery form of 1

  /// Conversion into/out of Montgomery form. `x` is reduced mod m first.
  Fe to_mont(const U256& x) const;
  U256 from_mont(const Fe& a) const;

  Fe add(const Fe& a, const Fe& b) const;
  Fe sub(const Fe& a, const Fe& b) const;
  Fe neg(const Fe& a) const;
  Fe mul(const Fe& a, const Fe& b) const;
  Fe sqr(const Fe& a) const { return mul(a, a); }

  /// a^e (e a plain integer, not in Montgomery form).
  Fe pow(const Fe& a, const U256& e) const;

  /// Multiplicative inverse via Fermat (modulus must be prime).
  Fe inverse(const Fe& a) const;

  bool is_zero(const Fe& a) const { return a.v.is_zero(); }

 private:
  /// Montgomery reduction of the 512-bit product (CIOS core).
  Fe mont_mul(const U256& a, const U256& b) const;

  U256 m_;
  Fe r_;              // R mod m
  U256 r2_;           // R^2 mod m
  std::uint64_t n0_;  // -m^{-1} mod 2^64
};

}  // namespace fides::crypto

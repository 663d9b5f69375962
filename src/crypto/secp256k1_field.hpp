// The secp256k1 base field F_p, p = 2^256 - 2^32 - 977, specialized.
//
// p is a pseudo-Mersenne prime: 2^256 ≡ 0x1000003D1 (mod p). Elements are
// plain, fully reduced integers in [0, p) held in 4x64-bit limbs (no
// Montgomery form), so equality and zero tests compare limbs directly. A
// 512-bit product hi·2^256 + lo reduces as lo + hi·0x1000003D1: two folds and
// one conditional subtraction. Everything but the inversion is header-inline
// because the Jacobian point formulas in secp256k1.cpp call it in their inner
// loops.
//
// The interface mirrors MontgomeryField (to_mont/from_mont are the
// conversions into and out of the field's representation, here a reduction
// and the identity), so the curve code reads the same over either field.
#pragma once

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "crypto/field.hpp"

namespace fides::crypto {

class Secp256k1Field {
 public:
  static constexpr U256 kP = U256::from_limbs(0xFFFFFFFEFFFFFC2FULL, 0xFFFFFFFFFFFFFFFFULL,
                                              0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL);
  /// 2^256 - p, the fold constant.
  static constexpr std::uint64_t kC = 0x1000003D1ULL;

  static Fe zero() { return Fe{}; }
  static Fe one() { return Fe{U256(1)}; }

  /// `x` reduced mod p (any 256-bit input; x < 2^256 < 2p).
  static Fe to_mont(const U256& x) { return reduce_once(x, 0); }
  static U256 from_mont(const Fe& a) { return a.v; }

  static Fe add(const Fe& a, const Fe& b) {
    U256 sum;
    Carry c = addc(0, a.v.w[0], b.v.w[0], sum.w[0]);
    c = addc(c, a.v.w[1], b.v.w[1], sum.w[1]);
    c = addc(c, a.v.w[2], b.v.w[2], sum.w[2]);
    c = addc(c, a.v.w[3], b.v.w[3], sum.w[3]);
    return reduce_once(sum, c);
  }

  static Fe sub(const Fe& a, const Fe& b) {
    U256 d;
    Carry borrow = subb(0, a.v.w[0], b.v.w[0], d.w[0]);
    borrow = subb(borrow, a.v.w[1], b.v.w[1], d.w[1]);
    borrow = subb(borrow, a.v.w[2], b.v.w[2], d.w[2]);
    borrow = subb(borrow, a.v.w[3], b.v.w[3], d.w[3]);
    // On borrow, d = a - b + 2^256 and the answer is d + p, which is d - C
    // mod 2^256. d > C then (a - b >= 1 - p), so this cannot borrow out.
    Carry c = subb(0, d.w[0], borrow ? kC : 0, d.w[0]);
    c = subb(c, d.w[1], 0, d.w[1]);
    c = subb(c, d.w[2], 0, d.w[2]);
    subb(c, d.w[3], 0, d.w[3]);
    return Fe{d};
  }

  static Fe neg(const Fe& a) { return sub(zero(), a); }

  /// Product scanning: each limb of the 512-bit product is one column of
  /// limb products summed into a three-word accumulator.
  static Fe mul(const Fe& a, const Fe& b) {
    const auto& x = a.v.w;
    const auto& y = b.v.w;
    std::uint64_t t[8];
    Acc acc;
    acc.add(x[0], y[0]);
    t[0] = acc.shift();
    acc.add(x[0], y[1]);
    acc.add(x[1], y[0]);
    t[1] = acc.shift();
    acc.add(x[0], y[2]);
    acc.add(x[1], y[1]);
    acc.add(x[2], y[0]);
    t[2] = acc.shift();
    acc.add(x[0], y[3]);
    acc.add(x[1], y[2]);
    acc.add(x[2], y[1]);
    acc.add(x[3], y[0]);
    t[3] = acc.shift();
    acc.add(x[1], y[3]);
    acc.add(x[2], y[2]);
    acc.add(x[3], y[1]);
    t[4] = acc.shift();
    acc.add(x[2], y[3]);
    acc.add(x[3], y[2]);
    t[5] = acc.shift();
    acc.add(x[3], y[3]);
    t[6] = acc.shift();
    t[7] = acc.shift();
    return reduce_wide(t);
  }

  /// a^2 from 10 limb products: each of the 6 cross products is computed
  /// once and added twice, plus the 4 squares on the diagonal.
  static Fe sqr(const Fe& a) {
    const auto& x = a.v.w;
    std::uint64_t t[8];
    Acc acc;
    acc.add(x[0], x[0]);
    t[0] = acc.shift();
    acc.add_twice(x[0], x[1]);
    t[1] = acc.shift();
    acc.add_twice(x[0], x[2]);
    acc.add(x[1], x[1]);
    t[2] = acc.shift();
    acc.add_twice(x[0], x[3]);
    acc.add_twice(x[1], x[2]);
    t[3] = acc.shift();
    acc.add_twice(x[1], x[3]);
    acc.add(x[2], x[2]);
    t[4] = acc.shift();
    acc.add_twice(x[2], x[3]);
    t[5] = acc.shift();
    acc.add(x[3], x[3]);
    t[6] = acc.shift();
    t[7] = acc.shift();
    return reduce_wide(t);
  }

  /// a^(−1) by variable-time safegcd (Bernstein and Yang, TCHES 2019, in
  /// the shape of libsecp256k1's modinv64_var): batches of 62 divsteps on
  /// signed 62-bit limbs until the gcd's second argument is zero. Its
  /// running time depends on `a`, which the threat model in secp256k1.hpp
  /// allows. Defined in secp256k1_field.cpp. Throws std::domain_error for
  /// zero.
  static Fe inverse(const Fe& a);

  static bool is_zero(const Fe& a) { return a.v.is_zero(); }

 private:
  using u128 = unsigned __int128;
  using Carry = unsigned char;

  // Add and subtract with carry. GCC and Clang turn the x86 intrinsics into
  // adc/sbb chains, which the portable 128-bit form does not reliably get.
  static Carry addc(Carry c, std::uint64_t a, std::uint64_t b, std::uint64_t& out) {
#if defined(__x86_64__)
    unsigned long long r;
    c = _addcarry_u64(c, a, b, &r);
    out = r;
    return c;
#else
    const u128 s = static_cast<u128>(a) + b + c;
    out = static_cast<std::uint64_t>(s);
    return static_cast<Carry>(s >> 64);
#endif
  }

  static Carry subb(Carry c, std::uint64_t a, std::uint64_t b, std::uint64_t& out) {
#if defined(__x86_64__)
    unsigned long long r;
    c = _subborrow_u64(c, a, b, &r);
    out = r;
    return c;
#else
    const u128 d = static_cast<u128>(a) - b - c;
    out = static_cast<std::uint64_t>(d);
    return static_cast<Carry>((d >> 64) & 1);
#endif
  }

  /// A 192-bit column accumulator (c2:c1:c0) for product scanning.
  struct Acc {
    std::uint64_t c0 = 0, c1 = 0, c2 = 0;

    void add(std::uint64_t a, std::uint64_t b) {
      const u128 t = static_cast<u128>(a) * b;
      const Carry c = addc(0, c0, static_cast<std::uint64_t>(t), c0);
      c2 += addc(c, c1, static_cast<std::uint64_t>(t >> 64), c1);
    }
    void add_twice(std::uint64_t a, std::uint64_t b) {
      const u128 t = static_cast<u128>(a) * b;
      for (int i = 0; i < 2; ++i) {
        const Carry c = addc(0, c0, static_cast<std::uint64_t>(t), c0);
        c2 += addc(c, c1, static_cast<std::uint64_t>(t >> 64), c1);
      }
    }
    /// Returns the low word and shifts the accumulator down one word.
    std::uint64_t shift() {
      const std::uint64_t low = c0;
      c0 = c1;
      c1 = c2;
      c2 = 0;
      return low;
    }
  };

  /// (carry·2^256 + r) mod p for a value below 2p. Subtracting p is adding
  /// C mod 2^256, and the value is >= p exactly when that addition carries
  /// out of 2^256 or `carry` is already set.
  static Fe reduce_once(const U256& r, Carry carry) {
    U256 s;
    Carry c = addc(0, r.w[0], kC, s.w[0]);
    c = addc(c, r.w[1], 0, s.w[1]);
    c = addc(c, r.w[2], 0, s.w[2]);
    c = addc(c, r.w[3], 0, s.w[3]);
    return Fe{(carry | c) != 0 ? s : r};
  }

  /// Reduces a 512-bit product t (little-endian limbs) mod p.
  static Fe reduce_wide(const std::uint64_t (&t)[8]) {
    // Fold 1: lo + hi·C < 2^256 + 2^289, a 256-bit r plus a top word < 2^34.
    // Each hi limb times C is a 97-bit pᵢ: its low words add in at limb i,
    // its high words at limb i + 1.
    u128 p[4];
    for (int i = 0; i < 4; ++i) p[i] = static_cast<u128>(t[4 + i]) * kC;
    U256 r;
    Carry c = addc(0, t[0], static_cast<std::uint64_t>(p[0]), r.w[0]);
    c = addc(c, t[1], static_cast<std::uint64_t>(p[1]), r.w[1]);
    c = addc(c, t[2], static_cast<std::uint64_t>(p[2]), r.w[2]);
    c = addc(c, t[3], static_cast<std::uint64_t>(p[3]), r.w[3]);
    std::uint64_t top = static_cast<std::uint64_t>(p[3] >> 64) + c;
    c = addc(0, r.w[1], static_cast<std::uint64_t>(p[0] >> 64), r.w[1]);
    c = addc(c, r.w[2], static_cast<std::uint64_t>(p[1] >> 64), r.w[2]);
    c = addc(c, r.w[3], static_cast<std::uint64_t>(p[2] >> 64), r.w[3]);
    top += c;
    // Fold 2: top·C < 2^67 goes back into the low limbs. If this carries out
    // of 2^256, r is now below 2^67, so the value is below 2p either way.
    const u128 q = static_cast<u128>(top) * kC;
    c = addc(0, r.w[0], static_cast<std::uint64_t>(q), r.w[0]);
    c = addc(c, r.w[1], static_cast<std::uint64_t>(q >> 64), r.w[1]);
    c = addc(c, r.w[2], 0, r.w[2]);
    c = addc(c, r.w[3], 0, r.w[3]);
    return reduce_once(r, c);
  }
};

}  // namespace fides::crypto

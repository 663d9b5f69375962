#include "crypto/field.hpp"

#include <stdexcept>

namespace fides::crypto {

namespace {

/// -m^{-1} mod 2^64 by Newton iteration (m odd). inv = m is already an
/// inverse to 3 bits (m*m ≡ 1 mod 8), and each iteration doubles the number
/// of correct bits: 3 -> 6 -> ... -> 192 >= 64.
std::uint64_t neg_inv64(std::uint64_t m) {
  std::uint64_t inv = m;
  for (int i = 0; i < 6; ++i) inv *= 2 - m * inv;
  return ~inv + 1;  // negate mod 2^64
}

}  // namespace

MontgomeryField::MontgomeryField(const U256& modulus) : m_(modulus) {
  if ((m_.w[0] & 1) == 0) throw std::invalid_argument("MontgomeryField: modulus must be odd");
  n0_ = neg_inv64(m_.w[0]);

  // R mod m: start from 1 and double 256 times mod m.
  U256 r(1);
  for (int i = 0; i < 256; ++i) {
    U256 doubled;
    const std::uint64_t carry = u256_add(doubled, r, r);
    U256 reduced;
    const std::uint64_t borrow = u256_sub(reduced, doubled, m_);
    r = (carry != 0 || borrow == 0) ? reduced : doubled;
  }
  r_ = Fe{r};

  // R^2 mod m: double another 256 times.
  U256 r2 = r;
  for (int i = 0; i < 256; ++i) {
    U256 doubled;
    const std::uint64_t carry = u256_add(doubled, r2, r2);
    U256 reduced;
    const std::uint64_t borrow = u256_sub(reduced, doubled, m_);
    r2 = (carry != 0 || borrow == 0) ? reduced : doubled;
  }
  r2_ = r2;
}

Fe MontgomeryField::mont_mul(const U256& a, const U256& b) const {
  // CIOS: interleave multiplication and Montgomery reduction.
  // t has 4 limbs + 2 overflow words.
  std::uint64_t t[6] = {0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    // t += a[i] * b
    std::uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      const unsigned __int128 cur = static_cast<unsigned __int128>(a.w[i]) * b.w[j] + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    {
      const unsigned __int128 cur = static_cast<unsigned __int128>(t[4]) + carry;
      t[4] = static_cast<std::uint64_t>(cur);
      t[5] = static_cast<std::uint64_t>(cur >> 64);
    }
    // m-step: u = t[0] * n0' mod 2^64; t += u * m; t >>= 64
    const std::uint64_t u = t[0] * n0_;
    {
      const unsigned __int128 cur = static_cast<unsigned __int128>(u) * m_.w[0] + t[0];
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    for (int j = 1; j < 4; ++j) {
      const unsigned __int128 cur = static_cast<unsigned __int128>(u) * m_.w[j] + t[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    {
      const unsigned __int128 cur = static_cast<unsigned __int128>(t[4]) + carry;
      t[3] = static_cast<std::uint64_t>(cur);
      t[4] = t[5] + static_cast<std::uint64_t>(cur >> 64);
      t[5] = 0;
    }
  }

  U256 res = U256::from_limbs(t[0], t[1], t[2], t[3]);
  // Final conditional subtraction: CIOS leaves t < 2m for any odd m < R with
  // inputs below m, so t[4] is the 257th bit and one subtraction of m (when
  // t[4] is set or res >= m) fully reduces.
  U256 reduced;
  const std::uint64_t borrow = u256_sub(reduced, res, m_);
  if (t[4] != 0 || borrow == 0) return Fe{reduced};
  return Fe{res};
}

Fe MontgomeryField::to_mont(const U256& x) const {
  const U256 xr = u256_less(x, m_) ? x : u256_mod(x, m_);
  return mont_mul(xr, r2_);
}

U256 MontgomeryField::from_mont(const Fe& a) const {
  return mont_mul(a.v, U256(1)).v;
}

Fe MontgomeryField::add(const Fe& a, const Fe& b) const {
  U256 sum;
  const std::uint64_t carry = u256_add(sum, a.v, b.v);
  U256 reduced;
  const std::uint64_t borrow = u256_sub(reduced, sum, m_);
  return (carry != 0 || borrow == 0) ? Fe{reduced} : Fe{sum};
}

Fe MontgomeryField::sub(const Fe& a, const Fe& b) const {
  U256 diff;
  const std::uint64_t borrow = u256_sub(diff, a.v, b.v);
  if (borrow != 0) {
    U256 wrapped;
    u256_add(wrapped, diff, m_);
    return Fe{wrapped};
  }
  return Fe{diff};
}

Fe MontgomeryField::neg(const Fe& a) const {
  if (a.v.is_zero()) return a;
  U256 out;
  u256_sub(out, m_, a.v);
  return Fe{out};
}

Fe MontgomeryField::mul(const Fe& a, const Fe& b) const { return mont_mul(a.v, b.v); }

Fe MontgomeryField::pow(const Fe& a, const U256& e) const {
  Fe result = one();
  const int top = e.bit_length();
  for (int i = top; i >= 0; --i) {
    result = sqr(result);
    if (e.bit(i)) result = mul(result, a);
  }
  return result;
}

Fe MontgomeryField::inverse(const Fe& a) const {
  if (a.v.is_zero()) throw std::domain_error("MontgomeryField::inverse of zero");
  U256 e;
  const U256 two(2);
  u256_sub(e, m_, two);  // m - 2
  return pow(a, e);
}

}  // namespace fides::crypto

// Secp256k1Field::inverse: variable-time safegcd.
//
// Bernstein and Yang, "Fast constant-time gcd computation and modular
// inversion" (TCHES 2019), in the variable-time shape of libsecp256k1's
// modinv64_var. The gcd of f = p and g = a is driven to g == 0 by divsteps:
// with eta = −delta, a step with g odd and eta < 0 replaces (f, g) by
// (g, (g − f)/2) and negates eta; otherwise g becomes (g + (g mod 2)·f)/2.
// Each batch runs 62 divsteps on the low 64 bits of f and g alone, folding
// them into a 2x2 matrix t scaled by 2^62, then applies t to the full f and
// g (which shift down by 62 bits exactly) and to d and e, the coefficients
// with d·a ≡ f·2^(62·batches) and e·a ≡ g·2^(62·batches) (mod p), which are
// kept modulo p by adding the multiple of p that clears their low 62 bits.
// When g reaches 0, f is ±1 and ±d is a^(−1). Numbers are held in signed
// 62-bit limbs so products of a limb and a matrix entry fit in 128 bits.
#include "crypto/secp256k1_field.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace fides::crypto {

namespace {

using i128 = __int128;

constexpr std::uint64_t kM62 = ~0ULL >> 2;

/// The integer Σ v[i]·2^(62·i). Limbs 0..3 of a normalized value lie in
/// [0, 2^62); during the algorithm every limb lies in (−2^62, 2^62) and the
/// top limb carries the sign.
struct Signed62 {
  std::int64_t v[5];
};

/// p in signed-62 form: 2^256 is 256·2^248, minus 0x1000003D1.
constexpr Signed62 kModulus{{-static_cast<std::int64_t>(Secp256k1Field::kC), 0, 0, 0, 256}};

/// p^(−1) mod 2^62, by Newton iteration: p is its own inverse to 3 bits, and
/// each step doubles the bits that are right (3 -> 6 -> ... -> 96 >= 64).
constexpr std::uint64_t modulus_inv62() {
  const std::uint64_t p0 = Secp256k1Field::kP.w[0];
  std::uint64_t inv = p0;
  for (int i = 0; i < 5; ++i) inv *= 2 - p0 * inv;
  return inv & kM62;
}
constexpr std::uint64_t kModulusInv62 = modulus_inv62();
static_assert(((kModulusInv62 * Secp256k1Field::kP.w[0]) & kM62) == 1);

/// The transition matrix of 62 divsteps, scaled by 2^62: after them,
/// 2^62·f' == u·f + v·g and 2^62·g' == q·f + r·g.
struct Transition {
  std::int64_t u, v, q, r;
};

/// 62 divsteps on the low words of f (odd) and g, several at a time: a run
/// of zero low bits of g is shifted out at once, and each odd step cancels
/// several low bits of g with one multiple of f. Returns the new eta.
std::int64_t divsteps_62(std::int64_t eta, std::uint64_t f0, std::uint64_t g0, Transition& t) {
  std::uint64_t u = 1, v = 0, q = 0, r = 1;
  std::uint64_t f = f0, g = g0;
  int i = 62;
  for (;;) {
    // The sentinel bit stops the count at the i steps left.
    const int zeros = std::countr_zero(g | (~0ULL << i));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    i -= zeros;
    if (i == 0) break;
    // f and g are odd here. If eta < 0, swap in (g, −f) and negate eta.
    const bool swapped = eta < 0;
    if (swapped) {
      eta = -eta;
      std::uint64_t tmp = f;
      f = g;
      g = -tmp;
      tmp = u;
      u = q;
      q = -tmp;
      tmp = v;
      v = r;
      r = -tmp;
    }
    // Cancel the low min(eta + 1, i) bits of g, at most 6 right after a
    // swap and 4 otherwise, with one multiple w of f: eta flips again after
    // eta + 1 steps, and only i are left. f·(f² − 2) == −f^(−1) (mod 64)
    // and f + (((f + 1) & 4) << 1) == f^(−1) (mod 16).
    const int limit = std::min(static_cast<int>(eta) + 1, i);
    const std::uint64_t mask = ~0ULL >> (64 - limit);
    const std::uint64_t w = swapped ? (f * g * (f * f - 2)) & mask & 63U
                                    : (-(f + (((f + 1) & 4) << 1)) * g) & mask & 15U;
    g += f * w;
    q += u * w;
    r += v * w;
  }
  t = Transition{static_cast<std::int64_t>(u), static_cast<std::int64_t>(v),
                 static_cast<std::int64_t>(q), static_cast<std::int64_t>(r)};
  return eta;
}

/// (d, e) <- (t·(d, e) + p·(md, me)) / 2^62, with md and me chosen so the
/// division is exact. Inputs and outputs lie in (−2p, p). p's limbs 1..3 are
/// zero, so only limbs 0 and 4 of p enter.
void update_de(Signed62& d, Signed62& e, const Transition& t) {
  const std::int64_t u = t.u, v = t.v, q = t.q, r = t.r;
  // Start md, me at [u, q] if d < 0 plus [v, r] if e < 0, which lifts the
  // output range back into (−2p, p).
  const std::int64_t sd = d.v[4] >> 63;
  const std::int64_t se = e.v[4] >> 63;
  std::int64_t md = (u & sd) + (v & se);
  std::int64_t me = (q & sd) + (r & se);
  i128 cd = static_cast<i128>(u) * d.v[0] + static_cast<i128>(v) * e.v[0];
  i128 ce = static_cast<i128>(q) * d.v[0] + static_cast<i128>(r) * e.v[0];
  // Correct md, me so the low 62 bits of t·(d, e) + p·(md, me) are zero.
  md -= static_cast<std::int64_t>(
      (kModulusInv62 * static_cast<std::uint64_t>(cd) + static_cast<std::uint64_t>(md)) & kM62);
  me -= static_cast<std::int64_t>(
      (kModulusInv62 * static_cast<std::uint64_t>(ce) + static_cast<std::uint64_t>(me)) & kM62);
  cd += static_cast<i128>(kModulus.v[0]) * md;
  ce += static_cast<i128>(kModulus.v[0]) * me;
  cd >>= 62;
  ce >>= 62;
  for (int i = 1; i < 4; ++i) {
    cd += static_cast<i128>(u) * d.v[i] + static_cast<i128>(v) * e.v[i];
    ce += static_cast<i128>(q) * d.v[i] + static_cast<i128>(r) * e.v[i];
    d.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cd) & kM62);
    e.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(ce) & kM62);
    cd >>= 62;
    ce >>= 62;
  }
  cd += static_cast<i128>(u) * d.v[4] + static_cast<i128>(v) * e.v[4];
  ce += static_cast<i128>(q) * d.v[4] + static_cast<i128>(r) * e.v[4];
  cd += static_cast<i128>(kModulus.v[4]) * md;
  ce += static_cast<i128>(kModulus.v[4]) * me;
  d.v[3] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cd) & kM62);
  e.v[3] = static_cast<std::int64_t>(static_cast<std::uint64_t>(ce) & kM62);
  cd >>= 62;
  ce >>= 62;
  d.v[4] = static_cast<std::int64_t>(cd);
  e.v[4] = static_cast<std::int64_t>(ce);
}

/// (f, g) <- t·(f, g) / 2^62 over their low `len` limbs; the division is
/// exact by construction of t.
void update_fg(int len, Signed62& f, Signed62& g, const Transition& t) {
  const std::int64_t u = t.u, v = t.v, q = t.q, r = t.r;
  i128 cf = static_cast<i128>(u) * f.v[0] + static_cast<i128>(v) * g.v[0];
  i128 cg = static_cast<i128>(q) * f.v[0] + static_cast<i128>(r) * g.v[0];
  cf >>= 62;
  cg >>= 62;
  for (int i = 1; i < len; ++i) {
    cf += static_cast<i128>(u) * f.v[i] + static_cast<i128>(v) * g.v[i];
    cg += static_cast<i128>(q) * f.v[i] + static_cast<i128>(r) * g.v[i];
    f.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cf) & kM62);
    g.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cg) & kM62);
    cf >>= 62;
    cg >>= 62;
  }
  f.v[len - 1] = static_cast<std::int64_t>(cf);
  g.v[len - 1] = static_cast<std::int64_t>(cg);
}

/// Carries every limb below the top back into [0, 2^62).
void propagate(std::int64_t (&r)[5]) {
  for (int i = 0; i < 4; ++i) {
    r[i + 1] += r[i] >> 62;
    r[i] &= static_cast<std::int64_t>(kM62);
  }
}

/// Brings r from (−2p, p) to [0, p), negated first when `sign` < 0.
void normalize(Signed62& r, std::int64_t sign) {
  // Add p if r < 0, then negate if asked: now r lies in (−p, p).
  std::int64_t cond = r.v[4] >> 63;
  for (int i = 0; i < 5; ++i) r.v[i] += kModulus.v[i] & cond;
  cond = sign >> 63;
  for (int i = 0; i < 5; ++i) r.v[i] = (r.v[i] ^ cond) - cond;
  propagate(r.v);
  // Add p again if r is still negative.
  cond = r.v[4] >> 63;
  for (int i = 0; i < 5; ++i) r.v[i] += kModulus.v[i] & cond;
  propagate(r.v);
}

Signed62 to_signed62(const U256& a) {
  const auto& w = a.w;
  return Signed62{{static_cast<std::int64_t>(w[0] & kM62),
                   static_cast<std::int64_t>((w[0] >> 62 | w[1] << 2) & kM62),
                   static_cast<std::int64_t>((w[1] >> 60 | w[2] << 4) & kM62),
                   static_cast<std::int64_t>((w[2] >> 58 | w[3] << 6) & kM62),
                   static_cast<std::int64_t>(w[3] >> 56)}};
}

/// A normalized value (limbs 0..3 in [0, 2^62), top limb in [0, 2^8)).
U256 from_signed62(const Signed62& a) {
  const auto v = [&a](int i) { return static_cast<std::uint64_t>(a.v[i]); };
  return U256::from_limbs(v(0) | v(1) << 62, v(1) >> 2 | v(2) << 60, v(2) >> 4 | v(3) << 58,
                          v(3) >> 6 | v(4) << 56);
}

}  // namespace

Fe Secp256k1Field::inverse(const Fe& a) {
  if (a.v.is_zero()) throw std::domain_error("Secp256k1Field::inverse of zero");
  Signed62 d{{0, 0, 0, 0, 0}};
  Signed62 e{{1, 0, 0, 0, 0}};
  Signed62 f = kModulus;
  Signed62 g = to_signed62(a.v);
  int len = 5;
  std::int64_t eta = -1;  // −delta, with delta starting at 1
  for (;;) {
    Transition t{};
    eta = divsteps_62(eta, static_cast<std::uint64_t>(f.v[0]),
                      static_cast<std::uint64_t>(g.v[0]), t);
    update_de(d, e, t);
    update_fg(len, f, g, t);
    if (g.v[0] == 0) {
      std::int64_t rest = 0;
      for (int j = 1; j < len; ++j) rest |= g.v[j];
      if (rest == 0) break;
    }
    // Drop the top limb of f and g once it is 0 or −1 in both, folding its
    // sign into the limb below.
    const std::int64_t fn = f.v[len - 1];
    const std::int64_t gn = g.v[len - 1];
    if (len > 1 && (fn ^ (fn >> 63)) == 0 && (gn ^ (gn >> 63)) == 0) {
      f.v[len - 2] = static_cast<std::int64_t>(static_cast<std::uint64_t>(f.v[len - 2]) |
                                               static_cast<std::uint64_t>(fn) << 62);
      g.v[len - 2] = static_cast<std::int64_t>(static_cast<std::uint64_t>(g.v[len - 2]) |
                                               static_cast<std::uint64_t>(gn) << 62);
      --len;
    }
  }
  // g == 0, so f == ±gcd(p, a) == ±1, and the inverse is ±d.
  normalize(d, f.v[len - 1]);
  return Fe{from_signed62(d)};
}

}  // namespace fides::crypto

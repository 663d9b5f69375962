#include "crypto/secp256k1.hpp"

#include <stdexcept>

namespace fides::crypto {

namespace {

// secp256k1 domain parameters (SEC 2), little-endian 64-bit limbs.
constexpr U256 kP = Secp256k1Field::kP;
constexpr U256 kN = U256::from_limbs(0xBFD25E8CD0364141ULL, 0xBAAEDCE6AF48A03BULL,
                                     0xFFFFFFFFFFFFFFFEULL, 0xFFFFFFFFFFFFFFFFULL);
constexpr U256 kGx = U256::from_limbs(0x59F2815B16F81798ULL, 0x029BFCDB2DCE28D9ULL,
                                      0x55A06295CE870B07ULL, 0x79BE667EF9DCBBACULL);
constexpr U256 kGy = U256::from_limbs(0x9C47D08FFB10D4B8ULL, 0xFD17B448A6855419ULL,
                                      0x5DA4FBFC0E1108A8ULL, 0x483ADA7726A3C465ULL);

/// Width-5 wNAF recoding: k == Σ out[i] * 2^i with out[i] odd in [-15, 15]
/// or zero, and no two adjacent nonzero digits. At most 257 digits.
std::vector<std::int8_t> wnaf5(const U256& k) {
  std::vector<std::int8_t> out;
  out.reserve(257);
  U256 d = k;
  while (!d.is_zero()) {
    std::int8_t digit = 0;
    if (d.w[0] & 1) {
      const int val = static_cast<int>(d.w[0] & 31);
      digit = static_cast<std::int8_t>(val > 16 ? val - 32 : val);
      if (digit > 0) {
        u256_sub(d, d, U256(static_cast<std::uint64_t>(digit)));
      } else {
        u256_add(d, d, U256(static_cast<std::uint64_t>(-digit)));
      }
    }
    out.push_back(digit);
    d.w[0] = (d.w[0] >> 1) | (d.w[1] << 63);
    d.w[1] = (d.w[1] >> 1) | (d.w[2] << 63);
    d.w[2] = (d.w[2] >> 1) | (d.w[3] << 63);
    d.w[3] >>= 1;
  }
  return out;
}

}  // namespace

Bytes AffinePoint::serialize() const {
  if (infinity) return Bytes{0x00};
  Bytes out;
  out.reserve(65);
  out.push_back(0x04);  // SEC1 uncompressed marker
  const auto xb = x.to_bytes_be();
  const auto yb = y.to_bytes_be();
  out.insert(out.end(), xb.begin(), xb.end());
  out.insert(out.end(), yb.begin(), yb.end());
  return out;
}

std::optional<AffinePoint> AffinePoint::deserialize(BytesView b) {
  if (b.size() == 1 && b[0] == 0x00) {
    AffinePoint a;
    a.infinity = true;
    return a;
  }
  if (b.size() != 65 || b[0] != 0x04) return std::nullopt;
  AffinePoint a;
  a.x = U256::from_bytes_be(b.subspan(1, 32));
  a.y = U256::from_bytes_be(b.subspan(33, 32));
  if (!Curve::instance().on_curve(a)) return std::nullopt;
  return a;
}

const Curve& Curve::instance() {
  static const Curve curve;
  return curve;
}

Curve::Curve() : fn_(kN), b7_(fp_.to_mont(U256(7))) {
  g_.x = fp_.to_mont(kGx);
  g_.y = fp_.to_mont(kGy);
  g_.z = fp_.one();

  g_table_.resize(64);
  Point window_base = g_;  // 16^i * G
  for (int i = 0; i < 64; ++i) {
    g_table_[i][0] = window_base;
    for (int j = 1; j < 15; ++j) {
      g_table_[i][j] = add(g_table_[i][j - 1], window_base);
    }
    for (int d = 0; d < 4; ++d) window_base = dbl(window_base);
  }
  // One inversion normalizes the whole table; every fixed-base lookup can
  // then go through the cheaper mixed addition.
  std::vector<Point> flat;
  flat.reserve(64 * 15);
  for (const auto& row : g_table_) flat.insert(flat.end(), row.begin(), row.end());
  batch_normalize(flat);
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 15; ++j) g_table_[i][j] = flat[static_cast<std::size_t>(i) * 15 + j];
  }
}

Point Curve::infinity() const {
  Point p;
  p.x = fp_.one();
  p.y = fp_.one();
  p.z = fp_.zero();
  return p;
}

Point Curve::negate(const Point& p) const {
  Point r = p;
  r.y = fp_.neg(p.y);
  return r;
}

Point Curve::dbl(const Point& p) const {
  // dbl-2009-l formulas (a = 0 special case).
  if (p.is_infinity() || fp_.is_zero(p.y)) return infinity();
  const auto& f = fp_;
  const Fe a = f.sqr(p.x);                    // XX
  const Fe b = f.sqr(p.y);                    // YY
  const Fe c = f.sqr(b);                      // YYYY
  Fe d = f.sub(f.sqr(f.add(p.x, b)), f.add(a, c));
  d = f.add(d, d);                            // D = 2*((X+YY)^2 - XX - YYYY)
  const Fe e = f.add(f.add(a, a), a);         // E = 3*XX
  const Fe ff = f.sqr(e);                     // F = E^2
  Point r;
  r.x = f.sub(ff, f.add(d, d));               // X3 = F - 2D
  Fe c8 = f.add(c, c);
  c8 = f.add(c8, c8);
  c8 = f.add(c8, c8);                         // 8*YYYY
  r.y = f.sub(f.mul(e, f.sub(d, r.x)), c8);   // Y3 = E*(D-X3) - 8*YYYY
  const Fe yz = f.mul(p.y, p.z);
  r.z = f.add(yz, yz);                        // Z3 = 2*Y*Z
  return r;
}

Point Curve::add(const Point& p, const Point& q) const {
  if (p.is_infinity()) return q;
  if (q.is_infinity()) return p;
  const auto& f = fp_;
  // add-2007-bl general Jacobian addition.
  const Fe z1z1 = f.sqr(p.z);
  const Fe z2z2 = f.sqr(q.z);
  const Fe u1 = f.mul(p.x, z2z2);
  const Fe u2 = f.mul(q.x, z1z1);
  const Fe s1 = f.mul(f.mul(p.y, q.z), z2z2);
  const Fe s2 = f.mul(f.mul(q.y, p.z), z1z1);
  if (u1 == u2) {
    if (s1 == s2) return dbl(p);
    return infinity();  // P + (-P)
  }
  const Fe h = f.sub(u2, u1);
  Fe i = f.add(h, h);
  i = f.sqr(i);                                // I = (2H)^2
  const Fe j = f.mul(h, i);                    // J = H*I
  Fe rr = f.sub(s2, s1);
  rr = f.add(rr, rr);                          // r = 2*(S2-S1)
  const Fe v = f.mul(u1, i);                   // V = U1*I
  Point out;
  out.x = f.sub(f.sub(f.sqr(rr), j), f.add(v, v));  // X3 = r^2 - J - 2V
  Fe s1j = f.mul(s1, j);
  s1j = f.add(s1j, s1j);
  out.y = f.sub(f.mul(rr, f.sub(v, out.x)), s1j);   // Y3 = r*(V-X3) - 2*S1*J
  Fe z = f.add(p.z, q.z);
  z = f.sub(f.sqr(z), f.add(z1z1, z2z2));
  out.z = f.mul(z, h);                              // Z3 = ((Z1+Z2)^2-Z1Z1-Z2Z2)*H
  return out;
}

Point Curve::add_mixed(const Point& p, const Point& q) const {
  if (q.is_infinity()) return p;
  if (p.is_infinity()) return q;
  const auto& f = fp_;
  // madd-2007-bl: general addition specialized for Z2 == 1.
  const Fe z1z1 = f.sqr(p.z);
  const Fe u2 = f.mul(q.x, z1z1);
  const Fe s2 = f.mul(f.mul(q.y, p.z), z1z1);
  if (u2 == p.x) {
    if (s2 == p.y) return dbl(p);
    return infinity();  // P + (-P)
  }
  const Fe h = f.sub(u2, p.x);
  const Fe hh = f.sqr(h);
  Fe i = f.add(hh, hh);
  i = f.add(i, i);                             // I = 4*HH
  const Fe j = f.mul(h, i);                    // J = H*I
  Fe rr = f.sub(s2, p.y);
  rr = f.add(rr, rr);                          // r = 2*(S2-Y1)
  const Fe v = f.mul(p.x, i);                  // V = X1*I
  Point out;
  out.x = f.sub(f.sub(f.sqr(rr), j), f.add(v, v));  // X3 = r^2 - J - 2V
  Fe y1j = f.mul(p.y, j);
  y1j = f.add(y1j, y1j);
  out.y = f.sub(f.mul(rr, f.sub(v, out.x)), y1j);   // Y3 = r*(V-X3) - 2*Y1*J
  out.z = f.sub(f.sub(f.sqr(f.add(p.z, h)), z1z1), hh);  // Z3 = (Z1+H)^2-Z1Z1-HH
  return out;
}

void Curve::batch_normalize(std::span<Point> pts) const {
  const auto& f = fp_;
  // Montgomery trick: prefix-multiply all Z's, invert the product once, then
  // peel per-point inverses off walking backwards.
  std::vector<Fe> prefix;
  prefix.reserve(pts.size());
  Fe acc = f.one();
  for (const Point& p : pts) {
    if (p.is_infinity()) continue;
    prefix.push_back(acc);
    acc = f.mul(acc, p.z);
  }
  if (prefix.empty()) return;
  Fe inv = f.inverse(acc);
  std::size_t k = prefix.size();
  for (std::size_t idx = pts.size(); idx-- > 0;) {
    Point& p = pts[idx];
    if (p.is_infinity()) continue;
    --k;
    const Fe zinv = f.mul(inv, prefix[k]);
    inv = f.mul(inv, p.z);
    const Fe zinv2 = f.sqr(zinv);
    p.x = f.mul(p.x, zinv2);
    p.y = f.mul(p.y, f.mul(zinv2, zinv));
    p.z = f.one();
  }
}

std::vector<AffinePoint> Curve::batch_to_affine(std::span<const Point> pts) const {
  std::vector<Point> norm(pts.begin(), pts.end());
  batch_normalize(norm);
  std::vector<AffinePoint> out(norm.size());
  for (std::size_t i = 0; i < norm.size(); ++i) {
    if (norm[i].is_infinity()) {
      out[i].infinity = true;
    } else {
      out[i].x = fp_.from_mont(norm[i].x);
      out[i].y = fp_.from_mont(norm[i].y);
    }
  }
  return out;
}

Point Curve::mul(const U256& k, const Point& p) const {
  Point acc = infinity();
  const int top = k.bit_length();
  for (int i = top; i >= 0; --i) {
    acc = dbl(acc);
    if (k.bit(i)) acc = add(acc, p);
  }
  return acc;
}

Point Curve::mul_g(const U256& k) const {
  Point acc = infinity();
  for (int i = 0; i < 64; ++i) {
    const unsigned digit = static_cast<unsigned>((k.w[i / 16] >> (4 * (i % 16))) & 0xF);
    if (digit != 0) acc = add_mixed(acc, g_table_[i][digit - 1]);
  }
  return acc;
}

Point Curve::mul_add(const U256& a, const U256& b, const Point& p) const {
  return msm(a, std::span<const U256>(&b, 1), std::span<const Point>(&p, 1));
}

Point Curve::msm(const U256& g_scalar, std::span<const U256> scalars,
                 std::span<const Point> points) const {
  if (scalars.size() != points.size()) {
    throw std::invalid_argument("msm: scalars/points length mismatch");
  }
  // wnaf5 recoding assumes its input never borrows past 2^256 when a window
  // digit is subtracted, which holds exactly for scalars reduced mod n
  // (n < 2^256 - 15). Enforce the precondition instead of silently wrapping.
  for (const U256& s : scalars) {
    if (!u256_less(s, kN)) {
      throw std::invalid_argument("msm: scalar not reduced mod n");
    }
  }
  const std::size_t n = points.size();
  // Odd multiples 1P, 3P, ..., 15P per point (width-5 wNAF), all normalized
  // with a single inversion so every ladder add is a mixed add.
  std::vector<Point> tables(n * 8);
  for (std::size_t i = 0; i < n; ++i) {
    tables[i * 8] = points[i];
    const Point p2 = dbl(points[i]);
    for (std::size_t j = 1; j < 8; ++j) {
      tables[i * 8 + j] = add(tables[i * 8 + j - 1], p2);
    }
  }
  batch_normalize(tables);
  std::vector<std::vector<std::int8_t>> nafs;
  nafs.reserve(n);
  for (const U256& s : scalars) nafs.push_back(wnaf5(s));

  // One shared ladder serves every scalar: the doublings are paid once. The
  // fixed-base contribution digit_j * 16^j * G is injected as (digit_j * G)
  // at ladder position 4j — the remaining 4j doublings scale it into place.
  Point acc = infinity();
  for (int i = 256; i >= 0; --i) {
    acc = dbl(acc);
    for (std::size_t s = 0; s < n; ++s) {
      const auto& naf = nafs[s];
      if (static_cast<std::size_t>(i) >= naf.size() || naf[i] == 0) continue;
      const int d = naf[i];
      const Point& entry = tables[s * 8 + static_cast<std::size_t>((d > 0 ? d : -d) - 1) / 2];
      acc = add_mixed(acc, d > 0 ? entry : negate(entry));
    }
    if ((i & 3) == 0 && i <= 252) {
      const int w = i / 4;
      const unsigned digit = static_cast<unsigned>((g_scalar.w[w / 16] >> (4 * (w % 16))) & 0xF);
      if (digit != 0) acc = add_mixed(acc, g_table_[0][digit - 1]);
    }
  }
  return acc;
}

AffinePoint Curve::to_affine(const Point& p) const {
  AffinePoint a;
  if (p.is_infinity()) {
    a.infinity = true;
    return a;
  }
  const auto& f = fp_;
  const Fe zinv = f.inverse(p.z);
  const Fe zinv2 = f.sqr(zinv);
  const Fe zinv3 = f.mul(zinv2, zinv);
  a.x = f.from_mont(f.mul(p.x, zinv2));
  a.y = f.from_mont(f.mul(p.y, zinv3));
  return a;
}

Point Curve::from_affine(const AffinePoint& a) const {
  if (a.infinity) return infinity();
  Point p;
  p.x = fp_.to_mont(a.x);
  p.y = fp_.to_mont(a.y);
  p.z = fp_.one();
  return p;
}

bool Curve::on_curve(const AffinePoint& a) const {
  if (a.infinity) return true;
  if (!u256_less(a.x, kP) || !u256_less(a.y, kP)) return false;
  const auto& f = fp_;
  const Fe x = f.to_mont(a.x);
  const Fe y = f.to_mont(a.y);
  const Fe lhs = f.sqr(y);
  const Fe rhs = f.add(f.mul(f.sqr(x), x), b7_);
  return lhs == rhs;
}

bool Curve::equal(const Point& p, const Point& q) const {
  if (p.is_infinity() || q.is_infinity()) return p.is_infinity() == q.is_infinity();
  // Cross-multiplied comparison avoids inversions:
  // X1/Z1^2 == X2/Z2^2  <=>  X1*Z2^2 == X2*Z1^2, likewise for Y with cubes.
  const auto& f = fp_;
  const Fe z1z1 = f.sqr(p.z);
  const Fe z2z2 = f.sqr(q.z);
  if (!(f.mul(p.x, z2z2) == f.mul(q.x, z1z1))) return false;
  const Fe z1c = f.mul(z1z1, p.z);
  const Fe z2c = f.mul(z2z2, q.z);
  return f.mul(p.y, z2c) == f.mul(q.y, z1c);
}

U256 scalar_from_digest(const Digest& d) {
  const U256 x = U256::from_bytes_be(d.view());
  return u256_mod(x, kN);
}

}  // namespace fides::crypto

#include "crypto/secp256k1.hpp"

#include <algorithm>
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

/// Digits per ladder term: the wNAF of a GLV half (below 2^128) has at most
/// 129 digits, so the shared ladder runs at most 129 doublings.
constexpr int kLadderDigits = 129;
/// wNAF widths: per-point terms use 8 odd multiples (built per call), fixed
/// tables 64 (built once).
constexpr int kPointWindow = 5;
constexpr int kFixedWindow = 8;

/// One ladder term: signed wNAF digits over a table of odd multiples, where
/// table[j] == (2j+1)·Q for the term's point Q.
struct LadderTerm {
  const Point* table{nullptr};
  std::array<std::int8_t, kLadderDigits> digits{};
  int length{0};  // index of the highest nonzero digit, plus one
};

/// Width-w NAF recoding of a magnitude k: k == Σ digits[i]·2^i, every digit
/// zero or odd in (−2^(w−1), 2^(w−1)), nonzero digits at least w apart.
/// Digits are negated when `negate` is set, so the term denotes −k.
void wnaf(const U256& k, int w, bool negate, LadderTerm& term) {
  if (k.bit_length() >= kLadderDigits - 1) {
    throw std::logic_error("wnaf: scalar half out of range");
  }
  const std::uint64_t mask = (1ULL << w) - 1;
  const int half = 1 << (w - 1);
  U256 d = k;
  for (int i = 0; !d.is_zero(); ++i) {
    if (d.w[0] & 1) {
      int digit = static_cast<int>(d.w[0] & mask);
      if (digit >= half) digit -= 1 << w;
      if (digit > 0) {
        u256_sub(d, d, U256(static_cast<std::uint64_t>(digit)));
      } else {
        u256_add(d, d, U256(static_cast<std::uint64_t>(-digit)));
      }
      term.digits[i] = static_cast<std::int8_t>(negate ? -digit : digit);
      term.length = i + 1;
    }
    d.w[0] = (d.w[0] >> 1) | (d.w[1] << 63);
    d.w[1] = (d.w[1] >> 1) | (d.w[2] << 63);
    d.w[2] = (d.w[2] >> 1) | (d.w[3] << 63);
    d.w[3] >>= 1;
  }
}

/// 1P, 3P, ..., (2·size−1)P into `out`, unnormalized. With C the Z of 2P,
/// the map (x, y) ↦ (x·C², y·C³) takes the curve to y² = x³ + 7·C⁶, where
/// 2P becomes (X, Y, 1). The chain of +2P runs there as mixed additions (the
/// a = 0 formulas never read the curve constant); an entry's Z on the real
/// curve is its Z there times C.
void odd_multiples(const Curve& c, const Point& p, std::span<Point> out) {
  if (p.is_infinity()) {
    std::fill(out.begin(), out.end(), p);
    return;
  }
  const auto& f = c.fp();
  const Point d = c.dbl(p);
  const Fe cz2 = f.sqr(d.z);
  const Point d_iso{d.x, d.y, f.one()};
  Point acc{f.mul(p.x, cz2), f.mul(p.y, f.mul(cz2, d.z)), p.z};
  for (std::size_t j = 0; j < out.size(); ++j) {
    if (j > 0) acc = c.add_mixed(acc, d_iso);
    out[j] = Point{acc.x, acc.y, f.mul(acc.z, d.z)};
  }
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

Curve::Curve() : fn_(kN), b7_(fp_.to_mont(U256(7))), beta_(fp_.to_mont(glv::kBeta)) {
  g_.x = fp_.to_mont(kGx);
  g_.y = fp_.to_mont(kGy);
  g_.z = fp_.one();

  // mul_g's comb. Row i starts from its base B = 2^(w·i)·G at Z == 1 and
  // chains mixed adds of B to 2^(w−1)·B, then doubles once more to the next
  // row's base 2^w·B: one batch normalization per row covers both.
  static_assert(256 - kCombWidth * (kCombRows - 1) < kCombWidth - 1,
                "the top window must stay below 2^(w-1) after a carry");
  g_table_.resize(kCombRows);
  std::array<Point, kCombTeeth + 1> row;
  Point base = g_;
  for (auto& entries : g_table_) {
    row[0] = base;
    for (int j = 1; j < kCombTeeth; ++j) row[j] = add_mixed(row[j - 1], base);
    row[kCombTeeth] = dbl(row[kCombTeeth - 1]);
    batch_normalize(row);
    for (int j = 0; j < kCombTeeth; ++j) entries[j] = CombEntry{row[j].x, row[j].y};
    base = row[kCombTeeth];
  }

  g_fixed_ = fixed_table(g_);
}

FixedTable Curve::fixed_table(const Point& q) const {
  if (q.is_infinity()) throw std::invalid_argument("fixed_table: point at infinity");
  FixedTable t;
  odd_multiples(*this, q, t.odd);
  batch_normalize(t.odd);
  for (std::size_t j = 0; j < t.odd.size(); ++j) t.lambda_odd[j] = endomorphism(t.odd[j]);
  return t;
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
  Point out;
  out.z = f.sub(f.sub(f.sqr(f.add(p.z, h)), z1z1), hh);  // Z3 = (Z1+H)^2-Z1Z1-HH
  Fe i = f.add(hh, hh);
  i = f.add(i, i);                             // I = 4*HH
  const Fe j = f.mul(h, i);                    // J = H*I
  Fe rr = f.sub(s2, p.y);
  rr = f.add(rr, rr);                          // r = 2*(S2-Y1)
  const Fe v = f.mul(p.x, i);                  // V = X1*I
  out.x = f.sub(f.sub(f.sqr(rr), j), f.add(v, v));  // X3 = r^2 - J - 2V
  Fe y1j = f.mul(p.y, j);
  y1j = f.add(y1j, y1j);
  out.y = f.sub(f.mul(rr, f.sub(v, out.x)), y1j);   // Y3 = r*(V-X3) - 2*Y1*J
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
  constexpr std::uint64_t kMask = (std::uint64_t{1} << kCombWidth) - 1;
  Point acc = infinity();
  int carry = 0;
  for (int i = 0; i < kCombRows; ++i) {
    // Window i: bits w·i .. w·i + w − 1 of k, across a limb boundary when
    // it straddles one, plus the carry out of window i − 1.
    const int bit = kCombWidth * i;
    const int limb = bit / 64;
    const int shift = bit % 64;
    std::uint64_t window = k.w[limb] >> shift;
    if (shift + kCombWidth > 64 && limb < 3) window |= k.w[limb + 1] << (64 - shift);
    int digit = static_cast<int>(window & kMask) + carry;
    carry = digit >= kCombTeeth ? 1 : 0;
    digit -= carry << kCombWidth;
    if (digit == 0) continue;
    const CombEntry& e = g_table_[i][(digit > 0 ? digit : -digit) - 1];
    acc = add_mixed(acc, Point{e.x, digit > 0 ? e.y : fp_.neg(e.y), fp_.one()});
  }
  return acc;
}

GlvSplit Curve::glv_split(const U256& k) const {
  if (!u256_less(k, kN)) throw std::invalid_argument("glv_split: scalar not reduced mod n");
  // A scalar already below 2^128 is its own short split. The lattice
  // rounding would spread it over two ~2^127 halves and double its adds
  // (batch_verify's 128-bit coefficients are all of this kind).
  if (k.w[2] == 0 && k.w[3] == 0) return GlvSplit{k, U256(0), false, false};
  // c = round(k·g / 2^384): the top two limbs of the 512-bit product, plus
  // bit 383 for the rounding.
  const auto round_shift = [](const U256& x, const U256& g) {
    const auto t = u256_mul_wide(x, g);
    U256 c = U256::from_limbs(t[6], t[7], 0, 0);
    u256_add(c, c, U256(t[5] >> 63));
    return c;
  };
  const U256 c1 = round_shift(k, glv::kG1);
  const U256 c2 = round_shift(k, glv::kG2);
  const auto& f = fn_;
  // k2 = c1·(−b1) − c2·b2 and k1 = k − k2·λ, all mod n.
  const Fe k2 = f.sub(f.mul(f.to_mont(c1), f.to_mont(glv::kMinusB1)),
                      f.mul(f.to_mont(c2), f.to_mont(glv::kB2)));
  const Fe k1 = f.sub(f.to_mont(k), f.mul(k2, f.to_mont(glv::kLambda)));
  // A residue above n/2 stands for the negative half n − r.
  const auto signed_half = [&](const Fe& r, U256& mag, bool& neg) {
    mag = f.from_mont(r);
    U256 minus;
    u256_sub(minus, kN, mag);
    neg = u256_less(minus, mag);
    if (neg) mag = minus;
  };
  GlvSplit out;
  signed_half(k1, out.k1, out.neg1);
  signed_half(k2, out.k2, out.neg2);
  return out;
}

Point Curve::endomorphism(const Point& p) const {
  Point r = p;
  r.x = fp_.mul(beta_, p.x);
  return r;
}

Point Curve::mul_add(const U256& a, const U256& b, const Point& p) const {
  return msm(a, std::span<const U256>(&b, 1), std::span<const Point>(&p, 1));
}

Point Curve::mul_add(const U256& a, const U256& b, const FixedTable& q) const {
  const FixedTerm term{b, &q};
  return msm(a, {}, {}, std::span<const FixedTerm>(&term, 1));
}

Point Curve::msm(const U256& g_scalar, std::span<const U256> scalars,
                 std::span<const Point> points, std::span<const FixedTerm> fixed) const {
  if (scalars.size() != points.size()) {
    throw std::invalid_argument("msm: scalars/points length mismatch");
  }
  for (const U256& s : scalars) {
    if (!u256_less(s, kN)) throw std::invalid_argument("msm: scalar not reduced mod n");
  }
  for (const FixedTerm& f : fixed) {
    if (!u256_less(f.scalar, kN)) throw std::invalid_argument("msm: scalar not reduced mod n");
  }
  const std::size_t n = points.size();
  constexpr std::size_t kOdd = std::size_t{1} << (kPointWindow - 2);
  // Odd multiples of every point seen once, normalized with a single
  // inversion so every ladder add is a mixed add.
  std::vector<Point> tables(n * kOdd);
  for (std::size_t i = 0; i < n; ++i) {
    odd_multiples(*this, points[i], std::span<Point>(tables).subspan(i * kOdd, kOdd));
  }
  batch_normalize(tables);

  // 2^256 < 2n, so one subtraction reduces any g_scalar.
  U256 g = g_scalar;
  if (!u256_less(g, kN)) u256_sub(g, g, kN);

  // Terms, two per GLV split: G's, then the fixed terms', then the points'.
  std::vector<LadderTerm> terms(2 * (1 + fixed.size() + n));
  const auto add_terms = [&](std::size_t t, const GlvSplit& split, const Point* table,
                             const Point* lambda_table, int w) {
    terms[t].table = table;
    wnaf(split.k1, w, split.neg1, terms[t]);
    terms[t + 1].table = lambda_table;
    wnaf(split.k2, w, split.neg2, terms[t + 1]);
  };
  add_terms(0, glv_split(g), g_fixed_.odd.data(), g_fixed_.lambda_odd.data(), kFixedWindow);
  for (std::size_t j = 0; j < fixed.size(); ++j) {
    add_terms(2 + 2 * j, glv_split(fixed[j].scalar), fixed[j].table->odd.data(),
              fixed[j].table->lambda_odd.data(), kFixedWindow);
  }
  // λP's table costs one field multiplication per entry, paid only when
  // the k2 half is nonzero.
  const std::size_t first_point = 2 + 2 * fixed.size();
  std::vector<Point> lambda_tables(tables.size());
  for (std::size_t i = 0; i < n; ++i) {
    const GlvSplit split = glv_split(scalars[i]);
    if (!split.k2.is_zero()) {
      for (std::size_t j = i * kOdd; j < (i + 1) * kOdd; ++j) {
        lambda_tables[j] = endomorphism(tables[j]);
      }
    }
    add_terms(first_point + 2 * i, split, &tables[i * kOdd], &lambda_tables[i * kOdd],
              kPointWindow);
  }
  int top = 0;
  for (const LadderTerm& t : terms) top = std::max(top, t.length);

  // One shared ladder serves every term: the doublings are paid once.
  Point acc = infinity();
  for (int i = top - 1; i >= 0; --i) {
    acc = dbl(acc);
    for (const LadderTerm& t : terms) {
      const int d = t.digits[static_cast<std::size_t>(i)];
      if (d == 0) continue;
      const Point& entry = t.table[(d > 0 ? d : -d) / 2];
      acc = add_mixed(acc, d > 0 ? entry : negate(entry));
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

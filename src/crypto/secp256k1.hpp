// secp256k1 elliptic-curve group, implemented from scratch.
//
// Curve: y^2 = x^3 + 7 over F_p, p = 2^256 - 2^32 - 977, with prime group
// order n. Points use Jacobian projective coordinates over the specialized
// base field (secp256k1_field.hpp: plain, fully reduced limbs with a
// pseudo-Mersenne reduction); affine conversion happens only at
// (de)serialization boundaries.
//
// This is the prime-order group underlying Schnorr signatures (§2.1) and
// Collective Signing (§2.2). Every verification runs on one ladder,
// Curve::msm: a shared GLV-split Strauss ladder whose terms read width-8
// tables precomputed once (G's, and a FixedTable per known public key, held
// by crypto::KeyTable) or width-5 tables built per call for points seen once.
// The implementation favours clarity and correctness over constant-time
// hardening (mul_g's comb skips zero digits, and the base-field inverse is a
// variable-time safegcd whose running time depends on its input): Fides'
// threat model (§3.2) is a computationally bounded adversary who cannot forge
// signatures; side-channel resistance of co-located processes is out of the
// paper's scope.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "crypto/secp256k1_field.hpp"
#include "crypto/sha256.hpp"

namespace fides::crypto {

class Curve;  // fwd

/// A point on secp256k1 in Jacobian coordinates (X : Y : Z), meaning the
/// affine point (X/Z^2, Y/Z^3); Z == 0 encodes the point at infinity.
struct Point {
  Fe x, y, z;

  bool is_infinity() const { return z.v.is_zero(); }
};

/// An affine point; the canonical serialized form is x||y big-endian
/// (64 bytes), or a single zero byte for infinity.
struct AffinePoint {
  U256 x, y;
  bool infinity{false};

  friend bool operator==(const AffinePoint&, const AffinePoint&) = default;

  Bytes serialize() const;
  static std::optional<AffinePoint> deserialize(BytesView b);
};

/// The GLV endomorphism of secp256k1 (Gallant, Lambert, Vanstone, CRYPTO
/// 2001). β is a cube root of unity mod p and λ one mod n, paired so that
/// λ·(x, y) == (β·x, y) for every point: a scalar multiple by λ costs one
/// field multiplication. The lattice {(x, y) : x + y·λ ≡ 0 (mod n)} has the
/// short basis (a1, b1), (a2, b2) with a1 == b2 and b1 < 0; g1 and g2 are
/// round(2^384·b2 / n) and round(2^384·(−b1) / n), the fixed-point rounding
/// constants of the split. crypto_test re-derives every relation.
namespace glv {
inline constexpr U256 kLambda = U256::from_limbs(0xDF02967C1B23BD72ULL, 0x122E22EA20816678ULL,
                                                 0xA5261C028812645AULL, 0x5363AD4CC05C30E0ULL);
inline constexpr U256 kBeta = U256::from_limbs(0xC1396C28719501EEULL, 0x9CF0497512F58995ULL,
                                               0x6E64479EAC3434E9ULL, 0x7AE96A2B657C0710ULL);
inline constexpr U256 kA1 = U256::from_limbs(0xE86C90E49284EB15ULL, 0x3086D221A7D46BCDULL, 0, 0);
/// −b1 (b1 itself is negative).
inline constexpr U256 kMinusB1 = U256::from_limbs(0x6F547FA90ABFE4C3ULL, 0xE4437ED6010E8828ULL,
                                                  0, 0);
inline constexpr U256 kA2 = U256::from_limbs(0x57C1108D9D44CFD8ULL, 0x14CA50F7A8E2F3F6ULL, 1, 0);
inline constexpr U256 kB2 = kA1;
inline constexpr U256 kG1 = U256::from_limbs(0xE893209A45DBB031ULL, 0x3DAA8A1471E8CA7FULL,
                                             0xE86C90E49284EB15ULL, 0x3086D221A7D46BCDULL);
inline constexpr U256 kG2 = U256::from_limbs(0x1571B4AE8AC47F71ULL, 0x221208AC9DF506C6ULL,
                                             0x6F547FA90ABFE4C4ULL, 0xE4437ED6010E8828ULL);
}  // namespace glv

/// A scalar k split as k ≡ k1 + k2·λ (mod n). Each half is stored as a
/// magnitude below 2^128 and a sign flag: half i stands for −ki when negi is
/// set.
struct GlvSplit {
  U256 k1, k2;
  bool neg1{false}, neg2{false};
};

/// Width-8 wNAF tables of one fixed point Q: odd[j] == (2j+1)·Q and
/// lambda_odd[j] == (2j+1)·λQ for j in 0..63, every entry normalized to
/// Z == 1 (about 12 KB). The curve holds G's; crypto::KeyTable holds one per
/// registered public key, so a check under a known key never rebuilds it.
struct FixedTable {
  std::array<Point, 64> odd;
  std::array<Point, 64> lambda_odd;
};

/// One msm term over a precomputed table: scalar·Q for the table's Q.
struct FixedTerm {
  U256 scalar;
  const FixedTable* table{nullptr};
};

/// Singleton-style curve context holding the base field (mod p), the
/// Montgomery scalar field (mod n) and the generator. Construction is cheap
/// but not free; use Curve::instance() to share one.
class Curve {
 public:
  static const Curve& instance();

  const Secp256k1Field& fp() const { return fp_; }
  const MontgomeryField& fn() const { return fn_; }
  const U256& order() const { return fn_.modulus(); }
  const Point& generator() const { return g_; }

  Point infinity() const;

  Point dbl(const Point& p) const;
  Point add(const Point& p, const Point& q) const;
  Point negate(const Point& p) const;

  /// Mixed addition p + q for a q already normalized to Z == 1 (madd-2007-bl,
  /// ~7M+4S vs ~11M+5S for the general add). Precondition: q.z is the
  /// field's one, or q is infinity.
  Point add_mixed(const Point& p, const Point& q) const;

  /// Normalizes every non-infinity point in `pts` to Z == 1 in place, using
  /// Montgomery's batch-inversion trick: one field inversion for the whole
  /// span instead of one per point. Infinities are left untouched (Z == 0).
  void batch_normalize(std::span<Point> pts) const;

  /// Affine conversion of a whole span with a single field inversion.
  std::vector<AffinePoint> batch_to_affine(std::span<const Point> pts) const;

  /// Scalar multiplication k*P, plain double-and-add MSB-first. This is the
  /// reference the tests and benches check the fast paths against; no
  /// protocol path calls it.
  Point mul(const U256& k, const Point& p) const;

  /// Splits k < n along the GLV lattice: c1 = round(k·b2 / n) and
  /// c2 = round(k·(−b1) / n) by 2^384-scaled fixed point, then
  /// k2 = −c1·b1 − c2·b2 and k1 = k − k2·λ (mod n). Both halves come out
  /// below 2^128 in magnitude; a k already below 2^128 splits as (k, 0).
  /// Throws std::invalid_argument if k >= n.
  GlvSplit glv_split(const U256& k) const;

  /// λ·P computed as (β·x, y, z).
  Point endomorphism(const Point& p) const;

  /// Q's FixedTable: one doubling, 63 mixed adds, one batch inversion and
  /// 64 β multiplications. Throws std::invalid_argument for infinity.
  FixedTable fixed_table(const Point& q) const;

  /// a*G + b*P, the Schnorr verification shape, for a P seen once: msm over
  /// one point, with P's table built for the call. `b` must be reduced mod n
  /// (throws std::invalid_argument otherwise).
  Point mul_add(const U256& a, const U256& b, const Point& p) const;

  /// a*G + b*Q over Q's precomputed table: the same ladder, with no table
  /// built for the call. `b` must be reduced mod n.
  Point mul_add(const U256& a, const U256& b, const FixedTable& q) const;

  /// Multi-scalar multiplication g_scalar*G + Σ scalars[i]*points[i] +
  /// Σ fixed[j].scalar*Q_j under a single shared double ladder (Strauss) of
  /// at most 129 steps: the library's one ladder. Every scalar is GLV-split,
  /// so each point contributes two half-length terms. A point seen once
  /// walks width-5 wNAF digits over its odd multiples 1P..15P and over λP's
  /// (β·x, y) copies of them, built for the call and batch-normalized with
  /// one inversion. G and every fixed term walk width-8 digits over a
  /// FixedTable (1Q..127Q and λQ's) built once. Every ladder add is a mixed
  /// add. `scalars` and `points` must have equal length and every scalar in
  /// `scalars` and `fixed` must be reduced mod n; violations throw
  /// std::invalid_argument. `g_scalar` may be any 256-bit value.
  Point msm(const U256& g_scalar, std::span<const U256> scalars,
            std::span<const Point> points, std::span<const FixedTerm> fixed = {}) const;

  /// mul_g's window width w. Each row then holds 2^(w−1) multiples, and
  /// ⌈257/w⌉ rows cover a 256-bit scalar plus the carry out of its top
  /// full window.
  static constexpr int kCombWidth = 6;
  static constexpr int kCombRows = (257 + kCombWidth - 1) / kCombWidth;
  static constexpr int kCombTeeth = 1 << (kCombWidth - 1);

  /// k*G for any 256-bit k by a signed-digit fixed-base comb (Lim and Lee,
  /// CRYPTO '94; the shape of libsecp256k1's ecmult_gen): k is cut into
  /// kCombRows windows of kCombWidth bits, each recoded to a digit in
  /// [−2^(w−1), 2^(w−1)) by carrying into the next window, and each nonzero
  /// digit d of window i adds ±|d|·2^(w·i)·G from row i of the table, a
  /// negative digit by negating y. No doublings and at most 43 mixed adds.
  /// Signing, CoSi commitments and key derivation are all fixed-base, so
  /// this is the signing hot path.
  Point mul_g(const U256& k) const;

  AffinePoint to_affine(const Point& p) const;
  Point from_affine(const AffinePoint& a) const;

  /// Checks y^2 == x^3 + 7 (mod p) for a non-infinity affine point.
  bool on_curve(const AffinePoint& a) const;

  /// True iff the two points denote the same group element.
  bool equal(const Point& p, const Point& q) const;

 private:
  Curve();

  Secp256k1Field fp_;
  MontgomeryField fn_;
  Fe b7_;  // curve constant 7
  Point g_;
  Fe beta_;  // glv::kBeta in the base field
  /// A comb entry, affine: its Z is the field's one.
  struct CombEntry {
    Fe x, y;
  };
  /// g_table_[i][j-1] == j·2^(w·i)·G for j in 1..2^(w−1), i in
  /// 0..kCombRows−1: mul_g's comb, 43 rows of 32 affine points (86 KiB).
  /// Each row is built by mixed adds from its normalized base and one batch
  /// normalization at construction.
  std::vector<std::array<CombEntry, kCombTeeth>> g_table_;
  /// G's FixedTable: the tables of msm's width-8 G terms.
  FixedTable g_fixed_;
};

/// Reduces a 32-byte digest to a scalar in [0, n). Used for Schnorr/CoSi
/// challenges: c = H(...) interpreted big-endian mod n.
U256 scalar_from_digest(const Digest& d);

}  // namespace fides::crypto

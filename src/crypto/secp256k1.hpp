// secp256k1 elliptic-curve group, implemented from scratch.
//
// Curve: y^2 = x^3 + 7 over F_p, p = 2^256 - 2^32 - 977, with prime group
// order n. Points use Jacobian projective coordinates over the specialized
// base field (secp256k1_field.hpp: plain, fully reduced limbs with a
// pseudo-Mersenne reduction); affine conversion happens only at
// (de)serialization boundaries.
//
// This is the prime-order group underlying Schnorr signatures (§2.1) and
// Collective Signing (§2.2). The implementation favours clarity and
// correctness over constant-time hardening: Fides' threat model (§3.2) is a
// computationally bounded adversary who cannot forge signatures; side-channel
// resistance of co-located processes is out of the paper's scope.
#pragma once

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

  /// Scalar multiplication k*P, plain double-and-add MSB-first.
  Point mul(const U256& k, const Point& p) const;

  /// Strauss–Shamir joint form a*G + b*P in one interleaved ladder: the G
  /// side reuses the fixed-base window table (adds only), the P side walks a
  /// width-5 wNAF over a batch-normalized odd-multiples table. One ladder's
  /// worth of doublings serves both scalars — the Schnorr verification shape.
  /// `b` must be reduced mod n (throws std::invalid_argument otherwise).
  Point mul_add(const U256& a, const U256& b, const Point& p) const;

  /// Multi-scalar multiplication g_scalar*G + Σ scalars[i]*points[i] under a
  /// single shared double ladder (Strauss). All per-point odd-multiple tables
  /// are batch-normalized with one inversion, so every ladder add is a mixed
  /// add. `scalars` and `points` must have equal length, and every entry of
  /// `scalars` must be reduced mod n (the wNAF recoding is only correct for
  /// k < 2^256 - 15); violations throw std::invalid_argument.
  Point msm(const U256& g_scalar, std::span<const U256> scalars,
            std::span<const Point> points) const;

  /// k*G via a precomputed fixed-base window table (4-bit windows over the
  /// 256-bit scalar: ~64 additions, no doublings). Signing, CoSi
  /// commitments, and responses are all fixed-base, so this is the hot path.
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
  /// g_table_[i][j-1] == j * 16^i * G for j in 1..15, i in 0..63. Every entry
  /// is batch-normalized to Z == 1 at construction so table lookups feed the
  /// cheaper mixed addition.
  std::vector<std::array<Point, 15>> g_table_;
};

/// Reduces a 32-byte digest to a scalar in [0, n). Used for Schnorr/CoSi
/// challenges: c = H(...) interpreted big-endian mod n.
U256 scalar_from_digest(const Digest& d);

}  // namespace fides::crypto

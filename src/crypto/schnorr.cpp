#include "crypto/schnorr.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/serde.hpp"

namespace fides::crypto {

namespace {

/// Challenge scalar c = H(ser(R) ‖ ser(P) ‖ m) mod n.
U256 challenge(const AffinePoint& r, const PublicKey& pk, BytesView message) {
  Sha256 h;
  const Bytes rb = r.serialize();
  const Bytes pb = pk.serialize();
  h.update(rb);
  h.update(pb);
  h.update(message);
  return scalar_from_digest(h.finalize());
}

/// Deterministic nonce: k = H(sk ‖ m ‖ ctr) mod n, retried while zero.
U256 derive_nonce(const U256& sk, BytesView message) {
  const auto skb = sk.to_bytes_be();
  for (std::uint8_t ctr = 0;; ++ctr) {
    Sha256 h;
    h.update(BytesView(skb.data(), skb.size()));
    h.update(message);
    h.update(BytesView(&ctr, 1));
    const U256 k = scalar_from_digest(h.finalize());
    if (!k.is_zero()) return k;
  }
}

}  // namespace

Bytes Signature::serialize() const {
  Writer w;
  w.bytes(r.serialize());
  const auto sb = s.to_bytes_be();
  w.raw(BytesView(sb.data(), sb.size()));
  return std::move(w).take();
}

std::optional<Signature> Signature::deserialize(BytesView b) {
  try {
    Reader rd(b);
    const Bytes rb = rd.bytes();
    const Bytes sb = rd.raw(32);
    rd.expect_done();
    const auto point = AffinePoint::deserialize(rb);
    if (!point) return std::nullopt;
    // Canonical form only: R = k·G with k != 0 is never infinity, and s is a
    // reduced scalar. Anything else would fail verify() later anyway; reject
    // it once here so downstream code can trust a parsed Signature.
    if (point->infinity) return std::nullopt;
    Signature sig;
    sig.r = *point;
    sig.s = U256::from_bytes_be(sb);
    if (!u256_less(sig.s, Curve::instance().order())) return std::nullopt;
    return sig;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

KeyPair KeyPair::from_seed(BytesView seed32) {
  const Digest d = sha256(seed32);
  U256 sk = scalar_from_digest(d);
  if (sk.is_zero()) sk = U256(1);  // astronomically unlikely; keep total
  const Curve& curve = Curve::instance();
  PublicKey pk{curve.to_affine(curve.mul_g(sk))};
  return KeyPair(sk, pk);
}

KeyPair KeyPair::deterministic(std::uint64_t node_id) {
  Writer w;
  w.str("fides-node-key");
  w.u64(node_id);
  return from_seed(w.data());
}

Signature KeyPair::sign(BytesView message) const {
  const Curve& curve = Curve::instance();
  const U256 k = derive_nonce(sk_, message);
  const AffinePoint r = curve.to_affine(curve.mul_g(k));
  const U256 c = challenge(r, pk_, message);

  // s = k + c*sk mod n, via the order-field Montgomery context.
  const auto& fn = curve.fn();
  const Fe s = fn.add(fn.to_mont(k), fn.mul(fn.to_mont(c), fn.to_mont(sk_)));
  return Signature{r, fn.from_mont(s)};
}

KeyTable::KeyTable(const PublicKey& key) : key_(key) {
  const Curve& curve = Curve::instance();
  if (key.point.infinity || !curve.on_curve(key.point)) {
    throw std::invalid_argument("KeyTable: key is infinity or off the curve");
  }
  table_ = curve.fixed_table(curve.from_affine(key.point));
}

namespace {

/// s·G == R + c·P rearranged to s·G + (n-c)·P == R: one Strauss-joint
/// ladder. `p` is the key as a point (its table built for the call) or as
/// its FixedTable; the caller has validated the key.
template <typename Key>
bool signature_holds(const PublicKey& pk, const Key& p, BytesView message,
                     const Signature& sig) {
  const Curve& curve = Curve::instance();
  if (sig.r.infinity || !curve.on_curve(sig.r)) return false;
  if (!u256_less(sig.s, curve.order())) return false;
  const U256 c = challenge(sig.r, pk, message);
  const auto& fn = curve.fn();
  const U256 neg_c = fn.from_mont(fn.neg(fn.to_mont(c)));
  return curve.equal(curve.mul_add(sig.s, neg_c, p), curve.from_affine(sig.r));
}

}  // namespace

bool verify(const PublicKey& pk, BytesView message, const Signature& sig) {
  const Curve& curve = Curve::instance();
  if (pk.point.infinity || !curve.on_curve(pk.point)) return false;
  return signature_holds(pk, curve.from_affine(pk.point), message, sig);
}

bool verify(const KeyTable& key, BytesView message, const Signature& sig) {
  return signature_holds(key.key(), key.table(), message, sig);
}

namespace {

/// Checks the z-weighted aggregate equation over `idx` ⊆ the batch:
///   Σ zᵢ·Rᵢ + Σ (zᵢcᵢ)·Pᵢ - (Σ zᵢsᵢ)·G == 0.
bool aggregate_holds(std::span<const BatchItem> items, std::span<const U256> z,
                     std::span<const U256> c, std::span<const Point> r_points,
                     std::span<const Point> p_points, std::span<const std::size_t> idx) {
  const Curve& curve = Curve::instance();
  const auto& fn = curve.fn();
  Fe s_agg = fn.zero();
  std::vector<U256> scalars;
  std::vector<Point> points;
  scalars.reserve(idx.size() * 2);
  points.reserve(idx.size() * 2);
  // Items under one key share their P: Σ (zᵢcᵢ)·P collapses to one term
  // (Σ zᵢcᵢ)·P, so a batch from a few signers pays for a few key terms.
  struct KeyTerm {
    std::size_t item;  // first item under this key
    Fe scalar;
  };
  std::vector<KeyTerm> key_terms;
  for (const std::size_t i : idx) {
    const Fe zi = fn.to_mont(z[i]);
    s_agg = fn.add(s_agg, fn.mul(zi, fn.to_mont(items[i].sig->s)));
    scalars.push_back(z[i]);
    points.push_back(r_points[i]);
    const Fe zc = fn.mul(zi, fn.to_mont(c[i]));
    auto term = std::find_if(key_terms.begin(), key_terms.end(), [&](const KeyTerm& t) {
      return items[t.item].pk->point == items[i].pk->point;
    });
    if (term == key_terms.end()) {
      key_terms.push_back(KeyTerm{i, zc});
    } else {
      term->scalar = fn.add(term->scalar, zc);
    }
  }
  for (const KeyTerm& t : key_terms) {
    scalars.push_back(fn.from_mont(t.scalar));
    points.push_back(p_points[t.item]);
  }
  const U256 neg_s = fn.from_mont(fn.neg(s_agg));
  return curve.msm(neg_s, scalars, points).is_infinity();
}

/// Recursive split: a subset whose aggregate holds is accepted wholesale;
/// one that fails is halved, bottoming out at a real individual verify — so
/// attribution is exact even for adversarial batches.
void attribute(std::span<const BatchItem> items, std::span<const U256> z,
               std::span<const U256> c, std::span<const Point> r_points,
               std::span<const Point> p_points, std::span<const std::size_t> idx,
               std::vector<unsigned char>& ok) {
  if (idx.empty()) return;
  if (idx.size() == 1) {
    const std::size_t i = idx[0];
    ok[i] = verify(*items[i].pk, items[i].message, *items[i].sig) ? 1 : 0;
    return;
  }
  if (aggregate_holds(items, z, c, r_points, p_points, idx)) {
    for (const std::size_t i : idx) ok[i] = 1;
    return;
  }
  const std::size_t half = idx.size() / 2;
  attribute(items, z, c, r_points, p_points, idx.subspan(0, half), ok);
  attribute(items, z, c, r_points, p_points, idx.subspan(half), ok);
}

}  // namespace

std::vector<unsigned char> batch_verify(std::span<const BatchItem> items) {
  const Curve& curve = Curve::instance();
  std::vector<unsigned char> ok(items.size(), 0);
  if (items.empty()) return ok;

  // Structural screen first: malformed items are rejected individually and
  // never enter the aggregate (an off-curve point would poison the MSM).
  std::vector<std::size_t> live;
  live.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& it = items[i];
    if (it.pk->point.infinity || it.sig->r.infinity) continue;
    if (!curve.on_curve(it.pk->point) || !curve.on_curve(it.sig->r)) continue;
    if (!u256_less(it.sig->s, curve.order())) continue;
    live.push_back(i);
  }
  if (live.empty()) return ok;
  if (live.size() == 1) {
    const auto& it = items[live[0]];
    ok[live[0]] = verify(*it.pk, it.message, *it.sig) ? 1 : 0;
    return ok;
  }

  std::vector<U256> c(items.size());
  std::vector<Point> r_points(items.size(), curve.infinity());
  std::vector<Point> p_points(items.size(), curve.infinity());
  for (const std::size_t i : live) {
    c[i] = challenge(items[i].sig->r, *items[i].pk, items[i].message);
    r_points[i] = curve.from_affine(items[i].sig->r);
    p_points[i] = curve.from_affine(items[i].pk->point);
  }

  // Fiat–Shamir coefficient seed over the whole batch: the zᵢ are fixed by
  // the batch contents (deterministic replay) yet unpredictable to whoever
  // produced the signatures, which is what defeats crafted cancellations.
  // The seed must commit to the COMPLETE signature, s included: with s left
  // out, an adversary who knows its keys' discrete logs could compute every
  // zᵢ up front and then solve Σ zᵢsᵢ = Σ zᵢ(rᵢ + cᵢxᵢ) for s values that
  // pass the aggregate while failing individual verification. Hashing s
  // makes any such solve change the coefficients out from under itself.
  Sha256 seed_h;
  seed_h.update(to_bytes("fides-batch-verify-v2"));
  for (const std::size_t i : live) {
    seed_h.update(items[i].sig->serialize());  // R and s
    seed_h.update(items[i].pk->serialize());
    seed_h.update(sha256(items[i].message).view());
  }
  const Digest seed = seed_h.finalize();
  std::vector<U256> z(items.size());
  for (const std::size_t i : live) {
    Sha256 h;
    h.update(seed.view());
    Writer w;
    w.u64(static_cast<std::uint64_t>(i));
    h.update(w.data());
    const Digest d = h.finalize();
    // 128-bit coefficients keep the MSM scalars short; zero is remapped so
    // no item can drop out of the linear combination.
    U256 zi = U256::from_bytes_be(d.view());
    zi.w[2] = 0;
    zi.w[3] = 0;
    if (zi.is_zero()) zi = U256(1);
    z[i] = zi;
  }

  attribute(items, z, c, r_points, p_points, live, ok);
  return ok;
}

}  // namespace fides::crypto

#include "crypto/cosi.hpp"

#include "common/serde.hpp"

namespace fides::crypto {

Bytes CosiSignature::serialize() const {
  Writer w;
  w.bytes(v.serialize());
  const auto rb = r.to_bytes_be();
  w.raw(BytesView(rb.data(), rb.size()));
  return std::move(w).take();
}

std::optional<CosiSignature> CosiSignature::deserialize(BytesView b) {
  try {
    Reader rd(b);
    const Bytes vb = rd.bytes();
    const Bytes rb = rd.raw(32);
    rd.expect_done();
    const auto point = AffinePoint::deserialize(vb);
    if (!point) return std::nullopt;
    CosiSignature sig;
    sig.v = *point;
    sig.r = U256::from_bytes_be(rb);
    return sig;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

U256 cosi_nonce(const KeyPair& kp, BytesView record, std::uint64_t round) {
  const auto skb = kp.secret_key().to_bytes_be();
  for (std::uint8_t ctr = 0;; ++ctr) {
    Sha256 h;
    h.update(to_bytes("cosi-nonce"));
    h.update(BytesView(skb.data(), skb.size()));
    h.update(record);
    Writer w;
    w.u64(round);
    w.u8(ctr);
    h.update(w.data());
    const U256 v = scalar_from_digest(h.finalize());
    if (!v.is_zero()) return v;
  }
}

CosiCommitment cosi_commit(const KeyPair& kp, BytesView record, std::uint64_t round) {
  const Curve& curve = Curve::instance();
  const U256 v = cosi_nonce(kp, record, round);
  return CosiCommitment{v, curve.to_affine(curve.mul_g(v))};
}

AffinePoint cosi_aggregate_commitments(std::span<const AffinePoint> commitments) {
  const Curve& curve = Curve::instance();
  // Every commitment is affine (Z == 1), so each step is a mixed add.
  Point acc = curve.infinity();
  for (const auto& c : commitments) acc = curve.add_mixed(acc, curve.from_affine(c));
  return curve.to_affine(acc);
}

U256 cosi_challenge(const AffinePoint& aggregate_v, BytesView record) {
  Sha256 h;
  h.update(aggregate_v.serialize());
  h.update(record);
  return scalar_from_digest(h.finalize());
}

U256 cosi_respond(const KeyPair& kp, const U256& secret, const U256& challenge) {
  const auto& fn = Curve::instance().fn();
  const Fe r = fn.add(fn.to_mont(secret),
                      fn.mul(fn.to_mont(challenge), fn.to_mont(kp.secret_key())));
  return fn.from_mont(r);
}

U256 cosi_aggregate_responses(std::span<const U256> responses) {
  const auto& fn = Curve::instance().fn();
  Fe acc = fn.zero();
  for (const auto& r : responses) acc = fn.add(acc, fn.to_mont(r));
  return fn.from_mont(acc);
}

namespace {

/// r·G == V + c·X rearranged to r·G + (n-c)·X == V: one joint ladder. `x`
/// is a validated key as a point or as its FixedTable.
template <typename Key>
bool share_holds(const AffinePoint& v, const U256& r, const U256& c, const Key& x) {
  const Curve& curve = Curve::instance();
  if (!curve.on_curve(v)) return false;
  if (!u256_less(r, curve.order())) return false;  // msm precondition
  const auto& fn = curve.fn();
  const U256 neg_c = fn.from_mont(fn.neg(fn.to_mont(c)));
  return curve.equal(curve.mul_add(r, neg_c, x), curve.from_affine(v));
}

}  // namespace

bool cosi_verify(BytesView record, const CosiSignature& sig, const KeyTable& aggregate) {
  return share_holds(sig.v, sig.r, cosi_challenge(sig.v, record), aggregate.table());
}

bool cosi_verify(BytesView record, const CosiSignature& sig,
                 std::span<const PublicKey> public_keys) {
  const Curve& curve = Curve::instance();
  if (public_keys.empty()) return false;
  Point x_agg = curve.infinity();
  for (const auto& pk : public_keys) {
    if (pk.point.infinity || !curve.on_curve(pk.point)) return false;
    x_agg = curve.add_mixed(x_agg, curve.from_affine(pk.point));
  }
  if (x_agg.is_infinity()) return false;
  return share_holds(sig.v, sig.r, cosi_challenge(sig.v, record), x_agg);
}

bool cosi_verify_share(const AffinePoint& commitment, const U256& response,
                       const U256& challenge, const KeyTable& key) {
  return share_holds(commitment, response, challenge, key.table());
}

std::vector<std::size_t> cosi_find_faulty(std::span<const AffinePoint> commitments,
                                          std::span<const U256> responses,
                                          const U256& challenge,
                                          std::span<const KeyTable* const> keys) {
  std::vector<std::size_t> faulty;
  // A witness controls only its own share: mismatched span lengths mean the
  // *caller* assembled the round wrong, and indexing past the shorter spans
  // would read out of range. Treat every slot as unattested rather than
  // guessing which spans line up.
  if (responses.size() != commitments.size() || keys.size() != commitments.size()) {
    faulty.resize(commitments.size());
    for (std::size_t i = 0; i < faulty.size(); ++i) faulty[i] = i;
    return faulty;
  }
  for (std::size_t i = 0; i < commitments.size(); ++i) {
    if (keys[i] == nullptr ||
        !cosi_verify_share(commitments[i], responses[i], challenge, *keys[i])) {
      faulty.push_back(i);
    }
  }
  return faulty;
}

}  // namespace fides::crypto

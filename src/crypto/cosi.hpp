// Collective Signing (CoSi) — Schnorr multisignatures (§2.2).
//
// A leader and N witnesses jointly sign one record in two rounds:
//   Announcement  leader -> witnesses : record
//   Commitment    witness -> leader   : V_i = v_i·G
//   Challenge     leader -> witnesses : c = H(ser(ΣV_i) ‖ record) mod n
//   Response      witness -> leader   : r_i = v_i + c·x_i mod n
// The aggregate (V = ΣV_i, r = Σr_i) is a constant-size signature verified
// against the aggregate public key X = ΣX_i as  r·G == V + c·X.
//
// Verification runs on Curve::msm's one ladder. A cluster checks every
// co-sign against the aggregate KeyTable of the block's distinct signer set,
// cached in its KeyRegistry, so no check re-sums or re-validates keys.
//
// The functions here are the pure-crypto core. Every server's witness side
// (nonce derivation, the challenge check, respond-once) is one
// commit::CosiWitness (commit/cosi_witness.*), and the TFCommit coordinator,
// the termination backup and the checkpoint round all lead through one
// commit::CosiLeader (commit/cosi_leader.*).
#pragma once

#include <span>
#include <vector>

#include "crypto/schnorr.hpp"

namespace fides::crypto {

/// Aggregate collective signature: the aggregated Schnorr commitment V and
/// response r. Verification cost equals a single Schnorr verification.
struct CosiSignature {
  AffinePoint v;
  U256 r;

  friend bool operator==(const CosiSignature&, const CosiSignature&) = default;

  Bytes serialize() const;
  static std::optional<CosiSignature> deserialize(BytesView b);
};

/// A witness's round state: the Schnorr secret and its public commitment.
struct CosiCommitment {
  U256 secret;     ///< v_i — never leaves the witness
  AffinePoint v;   ///< V_i = v_i·G — sent to the leader
};

/// The witness nonce v_i, derived deterministically from (sk, record, round).
/// Distinct (record, round) pairs give distinct nonces.
U256 cosi_nonce(const KeyPair& kp, BytesView record, std::uint64_t round);

/// Commitment phase: v_i = cosi_nonce(kp, record, round) and V_i = v_i·G.
CosiCommitment cosi_commit(const KeyPair& kp, BytesView record, std::uint64_t round);

/// Leader aggregation of witness commitments: V = ΣV_i.
AffinePoint cosi_aggregate_commitments(std::span<const AffinePoint> commitments);

/// Challenge c = H(ser(V) ‖ record) mod n. Every witness recomputes this to
/// catch a leader that lies about the challenge (Lemma 5 case analysis).
U256 cosi_challenge(const AffinePoint& aggregate_v, BytesView record);

/// Response phase: r_i = v_i + c·x_i mod n.
U256 cosi_respond(const KeyPair& kp, const U256& secret, const U256& challenge);

/// Leader aggregation of responses: r = Σr_i mod n.
U256 cosi_aggregate_responses(std::span<const U256> responses);

/// Full-signature verification against the signer set's aggregate key
/// X = ΣX_i, whose table KeyRegistry::aggregate built once per distinct set.
bool cosi_verify(BytesView record, const CosiSignature& sig, const KeyTable& aggregate);

/// Full-signature verification given all participants' public keys, seen
/// once: the keys are validated and summed, and the ladder builds X's table
/// for this call. A set whose keys sum to infinity verifies nothing.
bool cosi_verify(BytesView record, const CosiSignature& sig,
                 std::span<const PublicKey> public_keys);

/// Per-share check r_i·G == V_i + c·X_i. The leader uses this to pinpoint
/// the exact witness that sent a bogus response (Lemma 4: CoSi identifies
/// the precise misbehaving server).
bool cosi_verify_share(const AffinePoint& commitment, const U256& response,
                       const U256& challenge, const KeyTable& key);

/// Returns the indices of all shares failing cosi_verify_share; keys[i] is
/// witness i's table (a null entry counts as failing).
std::vector<std::size_t> cosi_find_faulty(std::span<const AffinePoint> commitments,
                                          std::span<const U256> responses,
                                          const U256& challenge,
                                          std::span<const KeyTable* const> keys);

}  // namespace fides::crypto

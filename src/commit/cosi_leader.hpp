// The one CoSi leader (§2.2), the counterpart of commit::CosiWitness.
//
// The leader sums the witnesses' commitments into V = ΣV_i, sends the
// challenge c = H(V ‖ record), sums their shares into r = Σr_i and checks
// (V, r) against the signer set's aggregate key; when that fails, checking
// each share on its own names the witnesses that sent bad ones (Lemma 4).
// The TFCommit coordinator, the cohort termination backup and the
// checkpoint round all lead through this class.
#pragma once

#include <span>
#include <vector>

#include "common/ids.hpp"
#include "crypto/cosi.hpp"
#include "crypto/key_registry.hpp"

namespace fides::commit {

class CosiLeader {
 public:
  /// Entry i of every commitment and share span belongs to signers[i].
  /// `keys` must outlive the leader.
  CosiLeader(std::vector<ServerId> signers, const crypto::KeyRegistry& keys)
      : signers_(std::move(signers)), keys_(&keys) {}

  const std::vector<ServerId>& signers() const { return signers_; }

  struct Challenge {
    crypto::AffinePoint v;  ///< V = ΣV_i
    crypto::U256 c;         ///< H(V ‖ record)
  };
  /// Sums the commitments and challenges over `record`; the leader keeps
  /// the commitments, V and c for seal() and faulty().
  Challenge challenge(std::span<const crypto::AffinePoint> commitments, BytesView record);

  /// H(V ‖ record) for another record under the same V: what a Lemma 5
  /// equivocating coordinator (Case 2) sends with its variant block.
  crypto::U256 rechallenge(BytesView record) const {
    return crypto::cosi_challenge(challenge_.v, record);
  }

  struct Seal {
    crypto::CosiSignature signature;  ///< (V, Σr_i)
    bool valid{false};                ///< verified under the aggregate key
  };
  /// Sums the shares into the co-sign and verifies it. `refused` (some
  /// witness declined to answer) skips the verify: the seal is invalid.
  Seal seal(std::span<const crypto::U256> shares, bool refused = false) const;

  /// The signers whose share fails r_i·G == V_i + c·X_i, in signer order.
  std::vector<ServerId> faulty(std::span<const crypto::U256> shares) const;

 private:
  std::vector<ServerId> signers_;
  const crypto::KeyRegistry* keys_;
  std::vector<crypto::AffinePoint> commitments_;
  Challenge challenge_;
};

}  // namespace fides::commit

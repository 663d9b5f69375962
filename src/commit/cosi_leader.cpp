#include "commit/cosi_leader.hpp"

namespace fides::commit {

CosiLeader::Challenge CosiLeader::challenge(std::span<const crypto::AffinePoint> commitments,
                                            BytesView record) {
  commitments_.assign(commitments.begin(), commitments.end());
  challenge_.v = crypto::cosi_aggregate_commitments(commitments_);
  challenge_.c = crypto::cosi_challenge(challenge_.v, record);
  return challenge_;
}

CosiLeader::Seal CosiLeader::seal(std::span<const crypto::U256> shares, bool refused) const {
  Seal s{{challenge_.v, crypto::cosi_aggregate_responses(shares)}, false};
  if (refused) return s;
  // cosi_verify(record, signature, aggregate) with its challenge H(V ‖ record)
  // already known: the record itself is not needed again.
  const crypto::KeyTable* aggregate = keys_->aggregate(signers_);
  s.valid = aggregate != nullptr &&
            crypto::cosi_verify_share(challenge_.v, s.signature.r, challenge_.c, *aggregate);
  return s;
}

std::vector<ServerId> CosiLeader::faulty(std::span<const crypto::U256> shares) const {
  std::vector<const crypto::KeyTable*> keys;
  keys.reserve(signers_.size());
  for (const ServerId s : signers_) keys.push_back(keys_->server(s));
  std::vector<ServerId> out;
  for (const std::size_t i : crypto::cosi_find_faulty(commitments_, shares, challenge_.c, keys)) {
    if (i < signers_.size()) out.push_back(signers_[i]);
  }
  return out;
}

}  // namespace fides::commit

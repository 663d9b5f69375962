#include "commit/cosi_witness.hpp"

namespace fides::commit {

crypto::AffinePoint CosiWitness::commit(BytesView seed, std::uint64_t nonce_round) const {
  return crypto::cosi_commit(*keypair_, seed, nonce_round).v;
}

CosiWitness::Answer CosiWitness::respond(BytesView seed, std::uint64_t nonce_round,
                                         BytesView record, const crypto::AffinePoint& v,
                                         const crypto::U256& c) {
  if (!(crypto::cosi_challenge(v, record) == c)) {
    return {std::nullopt, "challenge does not correspond to the block I received"};
  }
  const auto it = answered_.find(nonce_round);
  if (it != answered_.end() && !(it->second == c)) {
    return {std::nullopt, "already responded to a different challenge this round"};
  }
  if (it == answered_.end()) {
    // Write-ahead, like votes: the record is durable before r_i exists.
    ledger::RoundRecord rec;
    rec.type = ledger::RoundRecord::Type::kResponse;
    rec.epoch = nonce_round;
    rec.msg_type = "tf_response";  // one tag for every nonce domain
    const auto cb = c.to_bytes_be();
    rec.payload.assign(cb.begin(), cb.end());
    log_->append(rec);
    answered_.emplace(nonce_round, c);
  }
  const crypto::U256 nonce = crypto::cosi_nonce(*keypair_, seed, nonce_round);
  return {crypto::cosi_respond(*keypair_, nonce, c), ""};
}

void CosiWitness::restore(std::span<const ledger::RoundRecord> records) {
  for (const ledger::RoundRecord& rec : records) {
    if (rec.type == ledger::RoundRecord::Type::kResponse && rec.payload.size() == 32) {
      answered_.emplace(rec.epoch, crypto::U256::from_bytes_be(rec.payload));
    }
  }
}

}  // namespace fides::commit

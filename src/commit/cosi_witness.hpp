// The one CoSi witness of a server (§2.2).
//
// CoSi is safe only if every witness keeps two rules: it answers a challenge
// c only when c == H(V ‖ record) for the record it agreed to co-sign, and it
// never answers two distinct challenges under one deterministic nonce (two
// responses r = v + c·x and r' = v + c'·x give the key x away). TFCommit
// commit rounds, cohort termination and checkpoints all co-sign through this
// class, so both rules live here once and nonce secrets never leave it; they
// all lead through its counterpart, commit::CosiLeader.
//
// The respond-once guard is durable: the answered challenge is written to the
// server's RoundLog as a kResponse record before the response leaves, and
// restore() replays those records after a crash. A restarted server
// re-derives the same nonce, so an in-memory guard alone would leak the key.
#pragma once

#include <map>
#include <span>

#include "crypto/cosi.hpp"
#include "ledger/round_log.hpp"

namespace fides::commit {

class CosiWitness {
 public:
  CosiWitness(const crypto::KeyPair& keypair, ledger::RoundLog& log)
      : keypair_(&keypair), log_(&log) {}

  /// V_i of nonce round `nonce_round`. The nonce derives from `seed`; every
  /// later respond() for the round must pass the same seed.
  crypto::AffinePoint commit(BytesView seed, std::uint64_t nonce_round) const;

  /// The response share r_i, or why the witness refused to give one.
  struct Answer {
    std::optional<crypto::U256> r;
    const char* refusal{""};
  };

  /// Answers `c` only if c == cosi_challenge(v, record) and no different
  /// challenge was answered for `nonce_round`. The identical challenge asked
  /// again (a deterministic restart) gets the identical response.
  Answer respond(BytesView seed, std::uint64_t nonce_round, BytesView record,
                 const crypto::AffinePoint& v, const crypto::U256& c);

  /// Rebuilds the respond-once guard from a replayed round log.
  void restore(std::span<const ledger::RoundRecord> records);

 private:
  const crypto::KeyPair* keypair_;
  ledger::RoundLog* log_;
  std::map<std::uint64_t, crypto::U256> answered_;  ///< nonce round -> challenge
};

}  // namespace fides::commit

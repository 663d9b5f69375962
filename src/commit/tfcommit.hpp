// TFCommit — TrustFree Commitment (§4.3).
//
// A 3-round, 5-phase protocol merging Two-Phase Commit with Collective
// Signing:
//
//   1 <GetVote,  SchAnnouncement>  coordinator sends the partial block
//   2 <Vote,     SchCommitment>    cohorts vote + Schnorr commitments
//   3 <null,     SchChallenge>     coordinator fills decision/Σroots,
//                                  broadcasts challenge over the block
//   4 <null,     SchResponse>      cohorts validate the block and respond
//   5 <Decision, null>             coordinator aggregates the co-sign and
//                                  broadcasts the finalized block
//
// The classes here are pure protocol state machines: they consume messages
// and produce messages/outcomes, with no I/O. The fides::Cluster drives them
// over the signed transport. Fault knobs let a Byzantine node deviate at
// every step the paper analyses (Lemmas 4 and 5, Scenario 2).
#pragma once

#include <map>
#include <span>

#include "commit/cosi_leader.hpp"
#include "commit/cosi_witness.hpp"
#include "commit/messages.hpp"
#include "store/shard.hpp"

namespace fides::commit {

/// Byzantine deviations of a cohort during TFCommit.
struct CohortFaults {
  bool corrupt_sch_commitment{false};  ///< garbage x_sch (Lemma 4)
  bool corrupt_sch_response{false};    ///< garbage r_i (Lemma 4)
  bool always_vote_abort{false};       ///< grief by vetoing every block
  bool skip_root_check{false};         ///< collude: don't expose a fake root
};

/// Byzantine deviations of the coordinator.
struct CoordinatorFaults {
  /// Lemma 5: send commit-blocks to one subset of cohorts and abort-blocks
  /// to the rest. `kSameChallenge` reuses one challenge for both blocks
  /// (Case 1); `kMatchingChallenges` computes a consistent challenge per
  /// block (Case 2). Either way the final co-sign cannot verify.
  enum class Equivocation : std::uint8_t { kNone, kSameChallenge, kMatchingChallenges };
  Equivocation equivocate{Equivocation::kNone};
  /// Cohorts (by index in the cohort list) that receive the abort variant.
  std::vector<std::size_t> equivocation_victims;

  /// Scenario 2: replace this server's Σroots entry with a fake digest.
  std::optional<ServerId> fake_root_victim;

  /// Ignore abort votes and declare commit anyway (atomicity attack; fails
  /// because vetoing cohorts' roots are missing and they refuse to co-sign).
  bool force_commit{false};

  /// Emit a per-cohort challenge fan-out with the last message missing (a
  /// broken coordinator truncating its send loop). The resulting vector size
  /// matches neither the broadcast shape (1) nor the cohort count — drivers
  /// must refuse the round instead of indexing into the vector by cohort.
  bool drop_last_challenge{false};
};

/// Cohort-side state machine. One instance per server; handle_get_vote
/// opens a round, keyed by the CoSi round id from the GetVoteMsg — the
/// engine and OrdServ group commit both hand out *epochs* here (unique even
/// when aborted rounds reuse block heights; heights appear only in direct
/// unit-test drivers) — and every later message names its round by that id,
/// so stale redeliveries and pipelined rounds each find their own state.
/// Works against the server's shard (validation, hypothetical roots) and
/// CoSi witness (commitments, the challenge check, respond-once). All round
/// state here is volatile: a crashed server rebuilds it by reprocessing the
/// (retransmitted) get_vote — deterministic nonces make the rebuilt
/// commitments bit-identical to the lost ones, and the witness's guard is
/// durable.
///
/// Speculative voting (GetVoteMsg::spec): a speculative opening arrives
/// while earlier rounds this cohort has voted on are still deciding. The
/// cohort predicts each in-flight block's fate from its own vote (it never
/// vetoed a block it voted commit on; another cohort still might), stages
/// each predicted-applied block into a store::ShardOverlay through
/// txn::apply_committed (the rule Server::apply_block runs on the real
/// shard), and votes against that base — tagging the vote with the exact
/// assumptions so the coordinator can validate them against the real
/// decisions. The staged blocks' writes, followed by the round's own, form
/// one flat list: Shard::root_after over its prefix is the predicted base
/// root, over all of it the root the vote sends. resolve_decision() is the
/// truth feed: when an assumption proves wrong, the affected later votes are
/// recomputed on the corrected base and re-sent as *new* logical votes (new
/// (epoch, base) log records).
class TfCommitCohort {
 public:
  TfCommitCohort(ServerId id, CosiWitness& witness, store::Shard& shard)
      : id_(id), witness_(&witness), shard_(&shard) {}

  /// Phase 2. Validates the client requests (signatures verified by the
  /// caller/transport layer against the client registry), runs OCC
  /// validation for transactions touching this shard, computes the
  /// hypothetical Merkle root, and produces the vote.
  VoteMsg handle_get_vote(const GetVoteMsg& msg, const CohortFaults& faults = {});

  /// Phase 4: the challenge of round `round` (the GetVoteMsg's round id).
  /// Verifies the completed block against what this cohort voted (contents,
  /// root echo, decision/roots consistency); the witness then checks the
  /// challenge and respond-once, and responds or refuses.
  ResponseMsg handle_challenge(std::uint64_t round, const ChallengeMsg& msg,
                               const CohortFaults& faults = {});

  /// A recomputed vote for a round whose speculated base proved wrong.
  struct ReVote {
    std::uint64_t round{0};
    VoteMsg vote;
  };

  /// Truth feed for speculation: round `round` decided, and `applied` says
  /// whether its block changed this shard (committed with a valid co-sign).
  /// Pops the round off the pending stack and recomputes the vote of every
  /// later in-flight round whose last vote assumed the opposite — those
  /// come back as ReVotes the caller must log (vote-once per (epoch, base))
  /// and re-send. No-op for gated (non-speculative) rounds.
  std::vector<ReVote> resolve_decision(std::uint64_t round, bool applied);

  /// Whether this cohort's shard is touched by any transaction in `block`.
  bool involved_in(const Block& block) const;

  /// Whether state exists for `round` *and* matches this partial block —
  /// i.e. the opening is a redelivery, not a fresh round that happens to
  /// reuse a round id (aborted rounds reuse heights; OrdServ epochs do
  /// not). Absent after a crash until the opening is reprocessed.
  bool has_pending(std::uint64_t round, const Block& partial) const;

  /// The partial block this cohort received for `round`, or nullptr. A
  /// termination backup rebuilds the round from its own copy.
  const Block* partial_of(std::uint64_t round) const;

  // --- Cooperative termination (coordinator crash) ---------------------------
  //
  // When the coordinator dies mid-round, the surviving cohorts finish the
  // round themselves with a *fresh* CoSi exchange (a distinct nonce round —
  // reusing the original commitment under a second challenge would leak the
  // key). The decision is the conservative abort: no commit decision can
  // exist, because a TFCommit decision needs every signer's response.

  /// This cohort's termination commitment for `round`, or nullopt if it
  /// never saw the round's opening.
  std::optional<crypto::AffinePoint> term_commitment(std::uint64_t round) const;

  /// Verifies and co-signs a termination (abort) block for `round`. Refuses
  /// a non-abort decision, an unknown round, or a block whose contents
  /// differ from the opening this cohort saw; the witness refuses a
  /// challenge that does not match the block — a Byzantine backup cannot
  /// smuggle a commit (or different transactions) through the termination
  /// path.
  ResponseMsg handle_term_challenge(std::uint64_t round, const ChallengeMsg& msg);

  /// Wall time the last handle_get_vote spent computing the hypothetical
  /// Merkle root — the dominant cost §6.3 plots as "MHT update time".
  double last_root_compute_us() const { return last_root_compute_us_; }

 private:
  struct RoundState {
    crypto::AffinePoint commitment;  ///< V_i; the nonce stays in the witness
    std::optional<crypto::Digest> sent_root;
    txn::Vote vote{txn::Vote::kAbort};
    bool involved{false};
    Block partial;  ///< as received; the termination backup's block source
    /// Speculative round: partial.height is projected, prev_hash unknowable.
    bool spec{false};
    /// Faults in force when the opening was processed (re-votes must deviate
    /// — or not — exactly like the original vote did).
    CohortFaults faults;
    /// Base tag of the last vote computed for this round.
    std::vector<SpecAssumption> assumed;
    std::optional<crypto::Digest> base_root;
  };

  /// Nonce round id of the termination CoSi exchange for `round`.
  static std::uint64_t term_round(std::uint64_t round) {
    return round | (1ULL << 63);
  }

  void store_round(std::uint64_t round, RoundState state);

  /// OCC + hypothetical root over the (possibly speculated) base, shared by
  /// the first vote and every re-vote of a round. Reads the pending stack
  /// strictly below `round` and records the assumption tag into `state`.
  VoteMsg compute_vote(std::uint64_t round, RoundState& state);

  ServerId id_;
  CosiWitness* witness_;
  store::Shard* shard_;

  std::map<std::uint64_t, RoundState> rounds_;  ///< bounded (see kMaxRounds)
  /// Speculative rounds opened but not yet resolved, in round order — the
  /// overlay stack later speculative votes build on.
  std::vector<std::uint64_t> pending_;
  double last_root_compute_us_{0};

  static constexpr std::size_t kMaxRounds = 16;  ///< >= max pipeline depth + slack
};

/// Result of a full TFCommit round at the coordinator.
struct TfCommitOutcome {
  Block block;               ///< finalized block (cosign set if signable)
  Decision decision{Decision::kAbort};
  bool cosign_valid{false};  ///< aggregate signature verified OK
  /// Servers whose CoSi share failed verification (Lemma 4 attribution).
  std::vector<ServerId> faulty_cosigners;
  /// Cohorts that refused to co-sign, with their reasons.
  std::vector<std::pair<ServerId, std::string>> refusals;
};

/// Coordinator-side state machine for one block.
class TfCommitCoordinator {
 public:
  /// `cohorts` lists every server participating in termination (§4.1: all
  /// servers, including the coordinator itself, co-sign every block).
  /// `keys` holds every cohort's key and must outlive the coordinator; the
  /// co-sign is checked against the cohorts' cached aggregate.
  TfCommitCoordinator(std::vector<ServerId> cohorts, const crypto::KeyRegistry& keys)
      : leader_(std::move(cohorts), keys) {}

  /// Assembles the phase-1 partial block from a batch. `signers` is the
  /// witness set whose co-sign will seal the block (all servers under the
  /// global protocol; the group under §4.6 group commit).
  static Block make_partial_block(std::uint64_t height, const crypto::Digest& prev_hash,
                                  std::vector<txn::Transaction> txns,
                                  std::vector<ServerId> signers);

  GetVoteMsg start(Block partial_block, std::vector<SignedEndTxn> requests);

  /// Pins the real chain position of a speculatively opened round (the
  /// opening carried a projected height and no prev-hash) — must run before
  /// on_votes() computes the challenge over the completed block.
  void rebase(std::uint64_t height, const crypto::Digest& prev_hash) {
    block_.height = height;
    block_.prev_hash = prev_hash;
  }

  /// Phase 3: consumes all votes (one per cohort, in cohort order) and
  /// produces the challenge messages. An honest coordinator broadcasts —
  /// the returned vector has a single element every cohort receives; an
  /// equivocating one returns one (divergent) message per cohort.
  std::vector<ChallengeMsg> on_votes(std::span<const VoteMsg> votes,
                                     const CoordinatorFaults& faults = {});

  /// Phase 5: consumes all responses and finalizes.
  TfCommitOutcome on_responses(std::span<const ResponseMsg> responses);

  const Block& block() const { return block_; }

 private:
  CosiLeader leader_;  ///< signers: the cohorts, in cohort order
  Block block_;
};

/// Identifies which servers a block involves, via item placement: server i
/// owns shard i. Exposed for the coordinator, OrdServ grouping, and audits.
std::vector<ServerId> involved_servers(const Block& block, std::uint32_t num_servers);

}  // namespace fides::commit

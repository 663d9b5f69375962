// Wire messages of the commit protocols (TFCommit Figure 7, plus the 2PC
// baseline). These are the payloads; the signed envelope wrapping every
// message lives in fides/transport.hpp.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "crypto/cosi.hpp"
#include "ledger/block.hpp"
#include "txn/occ.hpp"

namespace fides::commit {

using ledger::Block;
using ledger::Decision;

/// µ — the client's signed end-transaction request (§4.3.1): transaction id,
/// client-assigned commit timestamp, and the read/write sets.
struct EndTxnRequest {
  txn::Transaction txn;

  Bytes serialize() const;
  static std::optional<EndTxnRequest> deserialize(BytesView b);
};

/// The request together with the client's signature over it. Servers store
/// these as proof against falsified client blame (§3.2) and forward them
/// encapsulated in get_vote so every cohort can verify the client really
/// issued the transaction.
struct SignedEndTxn {
  ClientId client;
  EndTxnRequest request;
  crypto::Signature signature;  ///< over request.serialize()

  bool verify(const crypto::KeyTable& client_key) const;
};

// --- TFCommit (Figure 7) ----------------------------------------------------

/// Phase 1 <GetVote, SchAnnouncement>: coordinator -> all cohorts.
/// `partial_block` carries commit timestamps, read/write sets and prev-hash;
/// roots/decision are not yet filled.
struct GetVoteMsg {
  Block partial_block;
  std::vector<SignedEndTxn> requests;
  /// CoSi round id — the nonce domain and the cohort's round-state key.
  /// TfCommitCoordinator::start defaults it to the block height; the round
  /// engine and OrdServ group commit overwrite it with an epoch so ids stay
  /// unique even when aborted rounds reuse heights.
  std::uint64_t round{0};
  /// Speculative opening (engine pipelining, ClusterConfig::speculate): the
  /// partial block's height is projected and its prev_hash is unknowable
  /// (earlier blocks are still deciding). The cohort votes on top of the
  /// *pending* update set of its in-flight rounds and tags the vote with
  /// the base it assumed; the true chain position arrives with the
  /// challenge. When false the opening is chain-anchored, exactly as in
  /// the paper's lock-step protocol.
  bool spec{false};

  Bytes serialize() const;
  static std::optional<GetVoteMsg> deserialize(BytesView b);
};

/// One entry of a speculative vote's base tag: the cohort assumed the block
/// of engine round `epoch` was (or was not) applied to its shard when it
/// computed OCC validation and the hypothetical root.
struct SpecAssumption {
  std::uint64_t epoch{0};
  bool applied{false};

  friend bool operator==(const SpecAssumption&, const SpecAssumption&) = default;
};

/// Phase 2 <Vote, SchCommitment>: cohort -> coordinator. Every cohort sends
/// the Schnorr commitment; only involved cohorts add vote (+ root on
/// commit).
struct VoteMsg {
  ServerId cohort;
  crypto::AffinePoint sch_commitment;  ///< x_sch = v_i·G
  bool involved{false};
  txn::Vote vote{txn::Vote::kAbort};
  std::string abort_reason;
  std::optional<crypto::Digest> root;  ///< root_mht, iff involved && commit

  /// Speculated base tag: the in-flight rounds (and their assumed
  /// outcomes) this vote's state was built on, in round order. Empty for a
  /// vote computed on fully-applied state — including every vote of the
  /// non-speculative protocol. The coordinator validates each assumption
  /// against the actual decision before it may count the vote; a vote with
  /// a mis-speculated base is discarded and the cohort re-votes once the
  /// truth reaches it.
  std::vector<SpecAssumption> spec_assumed;
  /// Predicted root of this cohort's shard for the speculated base (before
  /// this round's own writes) — the "(epoch, root)" base identity, cross-
  /// checked against the roots earlier decided blocks actually carried.
  std::optional<crypto::Digest> spec_base_root;

  /// True iff the vote was computed on a speculated (not yet applied) base.
  bool speculative() const { return !spec_assumed.empty(); }

  /// 64-bit discriminator of the speculated base, 0 for an empty tag. A
  /// re-vote after a changed base is a *different logical vote*: it gets its
  /// own durable log record keyed (epoch, base) and its own wire identity —
  /// never an equivocation of the original.
  std::uint64_t base_key() const;

  Bytes serialize() const;
  static std::optional<VoteMsg> deserialize(BytesView b);
};

/// Phase 3 <null, SchChallenge>: coordinator -> all cohorts. The block is now
/// complete (decision + Σroots); X_sch is the aggregate commitment so each
/// cohort can recompute and check the challenge.
struct ChallengeMsg {
  crypto::U256 challenge;
  crypto::AffinePoint aggregate_commitment;
  Block block;

  Bytes serialize() const;
  static std::optional<ChallengeMsg> deserialize(BytesView b);
};

/// Phase 4 <null, SchResponse>: cohort -> coordinator. A cohort that detects
/// an inconsistency (wrong challenge, forged root, decision/roots mismatch)
/// refuses to co-sign and says why — this is what makes coordinator
/// equivocation (Lemma 5) and fake roots (Scenario 2) unsignable.
struct ResponseMsg {
  ServerId cohort;
  bool refused{false};
  std::string refusal_reason;
  crypto::U256 sch_response;  ///< r_i, valid iff !refused

  Bytes serialize() const;
  static std::optional<ResponseMsg> deserialize(BytesView b);
};

/// Phase 5 <Decision, null>: coordinator -> cohorts + client: the finalized,
/// collectively signed block.
struct DecisionMsg {
  Block final_block;

  Bytes serialize() const;
  static std::optional<DecisionMsg> deserialize(BytesView b);
};

// --- 2PC baseline (§6.1) ----------------------------------------------------

struct PrepareMsg {
  Block partial_block;  ///< same block layout, no roots/cosign ever filled
  std::vector<SignedEndTxn> requests;

  Bytes serialize() const;
  static std::optional<PrepareMsg> deserialize(BytesView b);
};

struct PrepareVoteMsg {
  ServerId cohort;
  bool involved{false};
  txn::Vote vote{txn::Vote::kAbort};
  std::string abort_reason;

  Bytes serialize() const;
  static std::optional<PrepareVoteMsg> deserialize(BytesView b);
};

struct CommitDecisionMsg {
  Block final_block;  ///< decision filled; cosign absent by design

  Bytes serialize() const;
  static std::optional<CommitDecisionMsg> deserialize(BytesView b);
};

/// Canonical bytes of a signed end-transaction bundle (client id + request +
/// client signature) — what get_vote/prepare messages encapsulate.
void encode_signed_end_txn(Writer& w, const SignedEndTxn& s);
SignedEndTxn decode_signed_end_txn(Reader& r);

}  // namespace fides::commit

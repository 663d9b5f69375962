#include "commit/tfcommit.hpp"

#include "commit/batch.hpp"

#include <algorithm>
#include <chrono>

#include "common/cpu_time.hpp"
#include <unordered_set>

namespace fides::commit {

namespace {

/// A deliberately wrong curve point: a valid group element that is not the
/// one the protocol expects (garbage-but-on-curve, so it passes syntactic
/// checks and is only caught by the algebra — the interesting case).
crypto::AffinePoint bogus_point() {
  const auto& curve = crypto::Curve::instance();
  return curve.to_affine(curve.mul_g(crypto::U256(0xBAD)));
}

}  // namespace

Bytes EndTxnRequest::serialize() const {
  Writer w;
  txn.encode(w);
  return std::move(w).take();
}

std::optional<EndTxnRequest> EndTxnRequest::deserialize(BytesView b) {
  try {
    Reader r(b);
    EndTxnRequest req;
    req.txn = txn::Transaction::decode(r);
    r.expect_done();
    return req;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

bool SignedEndTxn::verify(const crypto::KeyTable& client_key) const {
  return crypto::verify(client_key, request.serialize(), signature);
}

// --- Cohort -----------------------------------------------------------------

bool TfCommitCohort::involved_in(const Block& block) const {
  for (const auto& t : block.txns) {
    for (const ItemId item : t.rw.touched_items()) {
      if (shard_->contains(item)) return true;
    }
  }
  return false;
}

VoteMsg TfCommitCohort::handle_get_vote(const GetVoteMsg& msg, const CohortFaults& faults) {
  RoundState state;
  state.involved = involved_in(msg.partial_block);
  state.partial = msg.partial_block;
  state.spec = msg.spec;
  state.faults = faults;

  // CoSi commitment over the round's vote identity (txns + witness set) —
  // every cohort participates in co-signing even when its shard is
  // untouched (§4.1 simplification). The chain position (height/prev-hash)
  // is deliberately outside the nonce record: a speculative opening does
  // not know it yet, and the commitment must come out bit-identical either
  // way for speculative and gated runs to co-sign identical blocks.
  state.commitment = witness_->commit(msg.partial_block.vote_bytes(), msg.round);

  VoteMsg vote = compute_vote(msg.round, state);
  store_round(msg.round, std::move(state));
  if (msg.spec &&
      std::find(pending_.begin(), pending_.end(), msg.round) == pending_.end()) {
    pending_.push_back(msg.round);
  }
  return vote;
}

VoteMsg TfCommitCohort::compute_vote(std::uint64_t round, RoundState& state) {
  VoteMsg vote;
  vote.cohort = id_;
  vote.sch_commitment =
      state.faults.corrupt_sch_commitment ? bogus_point() : state.commitment;
  vote.involved = state.involved;
  state.assumed.clear();
  state.base_root.reset();
  if (!state.involved) {
    // Uninvolved cohorts never veto — and no in-flight block this round
    // could stack on touches their shard's relevance, so the vote carries
    // no speculation tag and can never mis-speculate.
    state.vote = txn::Vote::kCommit;
    return vote;
  }

  // Speculated base: the shard as it would look once the in-flight rounds
  // below this one resolve the way this cohort predicts. The prediction per
  // round is the cohort's own vote — it cannot know the other shards'
  // verdicts — and every assumption is recorded so the coordinator can
  // check it against the real decisions. The stacked blocks' writes on this
  // shard go into one flat list, in order, ahead of this round's own:
  // Shard::root_after lets a later write to an item win, so the list's
  // prefix gives the predicted base root.
  store::ShardOverlay base(*shard_);
  std::vector<std::pair<ItemId, Bytes>> writes;
  const auto append_writes = [&](const Block& block) {
    for (const auto& t : block.txns) {
      for (const auto& w : t.rw.writes) {
        if (shard_->contains(w.id)) writes.emplace_back(w.id, w.new_value);
      }
    }
  };
  for (const std::uint64_t e : pending_) {
    if (e == round) break;  // stack strictly below the round being voted
    const auto it = rounds_.find(e);
    if (it == rounds_.end()) continue;
    const RoundState& st = it->second;
    if (!st.involved) continue;  // cannot touch this shard either way
    const bool assume_applied = st.vote == txn::Vote::kCommit;
    state.assumed.push_back(SpecAssumption{e, assume_applied});
    if (!assume_applied) continue;
    for (const auto& t : st.partial.txns) txn::apply_committed(base, t);
    append_writes(st.partial);
  }
  const std::size_t base_writes = writes.size();

  // Local 2PC vote: the batch must be internally non-conflicting (§4.6) and
  // every transaction touching this shard must pass OCC validation — on the
  // speculated base, which equals the real shard when nothing is in flight.
  txn::ValidationResult result{txn::Vote::kCommit, {}};
  if (!batch_non_conflicting(state.partial.txns)) {
    result = {txn::Vote::kAbort, "block packs conflicting transactions"};
  }
  for (const auto& t : state.partial.txns) {
    if (!result.ok()) break;
    result = txn::validate_occ(base, t);
  }
  if (state.faults.always_vote_abort) result = {txn::Vote::kAbort, "byzantine veto"};

  state.vote = result.vote;
  vote.vote = result.vote;
  vote.abort_reason = result.reason;
  vote.spec_assumed = state.assumed;
  last_root_compute_us_ = 0;
  state.sent_root.reset();
  // Thread CPU time: the Figure 14 "MHT update time" series must not be
  // inflated by time slices when cohorts run concurrently on the pool.
  const double start = common::thread_cpu_time_us();
  if (!state.assumed.empty()) {
    // Base identity: the predicted root of this shard *before* this round's
    // own writes — what the decided chain must actually produce for the
    // vote to count.
    state.base_root = shard_->root_after(std::span(writes).first(base_writes));
    vote.spec_base_root = state.base_root;
  }
  if (result.ok()) {
    // Hypothetical root: the shard state as if the in-flight base and then
    // this block committed. The datastore itself is untouched until the
    // decisions arrive.
    append_writes(state.partial);
    state.sent_root = shard_->root_after(writes);
    vote.root = state.sent_root;
  }
  last_root_compute_us_ = common::thread_cpu_time_us() - start;
  return vote;
}

std::vector<TfCommitCohort::ReVote> TfCommitCohort::resolve_decision(std::uint64_t round,
                                                                     bool applied) {
  std::vector<ReVote> revotes;
  const auto pos = std::find(pending_.begin(), pending_.end(), round);
  if (pos == pending_.end()) return revotes;
  pending_.erase(pos);
  // Recompute in round order: a re-vote of round m feeds the prediction an
  // even later round's re-vote stacks on.
  for (const std::uint64_t later : pending_) {
    if (later < round) continue;
    const auto it = rounds_.find(later);
    if (it == rounds_.end()) continue;
    RoundState& st = it->second;
    if (!st.involved) continue;
    const auto a = std::find_if(st.assumed.begin(), st.assumed.end(),
                                [&](const SpecAssumption& s) { return s.epoch == round; });
    if (a == st.assumed.end() || a->applied == applied) continue;  // prediction held
    ReVote rv;
    rv.round = later;
    rv.vote = compute_vote(later, st);
    revotes.push_back(std::move(rv));
  }
  return revotes;
}

ResponseMsg TfCommitCohort::handle_challenge(std::uint64_t round, const ChallengeMsg& msg,
                                             const CohortFaults& faults) {
  ResponseMsg resp;
  resp.cohort = id_;
  resp.refused = true;
  const auto it = rounds_.find(round);
  if (it == rounds_.end()) {
    resp.refusal_reason = "challenge received without a pending round";
    return resp;
  }
  const RoundState& state = it->second;
  const Block& block = msg.block;
  // A speculative opening carried a projected height and no prev-hash; the
  // completed block pins the real chain position, which this cohort checks
  // at apply time instead. Everything content-ful must still match the
  // opening it voted on.
  const bool match =
      state.partial.txns == block.txns && state.partial.signers == block.signers &&
      (state.spec || (state.partial.height == block.height &&
                      state.partial.prev_hash == block.prev_hash));
  if (!match) {
    resp.refusal_reason = "challenge block does not match the round I voted on";
    return resp;
  }

  // Decision/roots consistency (§4.3.1 phase 4): a commit block must carry
  // a root from every involved server; an abort block must be missing at
  // least one. For abort blocks there is nothing shard-specific to check:
  // missing roots are expected ("if the decision is abort, b_i should have
  // some missing roots"), and the witness's challenge check still binds the
  // cohort to the abort variant it actually received.
  if (block.decision == Decision::kCommit && state.involved && !faults.skip_root_check) {
    const crypto::Digest* mine = block.root_of(id_);
    if (mine == nullptr) {
      resp.refusal_reason = "commit block missing my root";
      return resp;
    }
    if (!state.sent_root || !(*mine == *state.sent_root)) {
      resp.refusal_reason = "root in block does not match the root I sent";
      return resp;
    }
    if (state.vote == txn::Vote::kAbort) {
      resp.refusal_reason = "commit decision despite my abort vote";
      return resp;
    }
  }

  // Challenge correctness (Lemma 5 detection: ch must equal H(X_sch ‖ block)
  // for the block *I* received) and nonce protection are the witness's.
  const CosiWitness::Answer answer = witness_->respond(
      state.partial.vote_bytes(), round, block.signing_bytes(), msg.aggregate_commitment,
      msg.challenge);
  if (!answer.r) {
    resp.refusal_reason = answer.refusal;
    return resp;
  }
  resp.refused = false;
  resp.sch_response = faults.corrupt_sch_response ? crypto::U256(0xBADBAD) : *answer.r;
  return resp;
}

void TfCommitCohort::store_round(std::uint64_t round, RoundState state) {
  rounds_[round] = std::move(state);
  // Bounded memory: only the pipeline window (plus stale redeliveries) is
  // ever consulted; evict the oldest rounds beyond it.
  while (rounds_.size() > kMaxRounds) {
    const std::uint64_t evicted = rounds_.begin()->first;
    const auto pos = std::find(pending_.begin(), pending_.end(), evicted);
    if (pos != pending_.end()) pending_.erase(pos);
    rounds_.erase(rounds_.begin());
  }
}

bool TfCommitCohort::has_pending(std::uint64_t round, const Block& partial) const {
  const auto it = rounds_.find(round);
  return it != rounds_.end() && it->second.partial == partial;
}

const Block* TfCommitCohort::partial_of(std::uint64_t round) const {
  const auto it = rounds_.find(round);
  return it == rounds_.end() ? nullptr : &it->second.partial;
}

std::optional<crypto::AffinePoint> TfCommitCohort::term_commitment(
    std::uint64_t round) const {
  const auto it = rounds_.find(round);
  if (it == rounds_.end()) return std::nullopt;
  // Same record discipline as the vote commitment (the termination block's
  // chain position can be fixed up after a speculative opening); the
  // distinct term_round id keeps the nonce domains apart.
  return witness_->commit(it->second.partial.vote_bytes(), term_round(round));
}

ResponseMsg TfCommitCohort::handle_term_challenge(std::uint64_t round,
                                                  const ChallengeMsg& msg) {
  ResponseMsg resp;
  resp.cohort = id_;
  resp.refused = true;
  const auto it = rounds_.find(round);
  if (it == rounds_.end()) {
    resp.refusal_reason = "termination challenge for an unknown round";
    return resp;
  }
  const Block& mine = it->second.partial;
  // Signers legitimately shrink to the survivor set, and for a speculative
  // opening the backup fills in the real chain position (the projected
  // height/absent prev-hash in the opening could never match); nothing else
  // may differ from the opening this cohort received.
  const bool chain_ok =
      it->second.spec ||
      (msg.block.height == mine.height && msg.block.prev_hash == mine.prev_hash);
  if (!chain_ok || !(msg.block.txns == mine.txns)) {
    resp.refusal_reason = "termination block does not match the opening I received";
    return resp;
  }
  if (msg.block.decision != Decision::kAbort) {
    // Only the coordinator path can justify a commit (it alone collects all
    // votes); a termination backup may never manufacture one.
    resp.refusal_reason = "termination block must carry an abort decision";
    return resp;
  }
  const CosiWitness::Answer answer =
      witness_->respond(mine.vote_bytes(), term_round(round), msg.block.signing_bytes(),
                        msg.aggregate_commitment, msg.challenge);
  resp.refused = !answer.r;
  resp.refusal_reason = answer.refusal;
  resp.sch_response = answer.r.value_or(crypto::U256{});
  return resp;
}

// --- Coordinator ------------------------------------------------------------

Block TfCommitCoordinator::make_partial_block(std::uint64_t height,
                                              const crypto::Digest& prev_hash,
                                              std::vector<txn::Transaction> txns,
                                              std::vector<ServerId> signers) {
  Block b;
  b.height = height;
  b.prev_hash = prev_hash;
  b.txns = std::move(txns);
  b.signers = std::move(signers);
  b.decision = Decision::kAbort;  // filled in phase 3
  return b;
}

GetVoteMsg TfCommitCoordinator::start(Block partial_block,
                                      std::vector<SignedEndTxn> requests) {
  block_ = std::move(partial_block);
  GetVoteMsg msg;
  msg.partial_block = block_;
  msg.requests = std::move(requests);
  msg.round = block_.height;
  return msg;
}

std::vector<ChallengeMsg> TfCommitCoordinator::on_votes(std::span<const VoteMsg> votes,
                                                        const CoordinatorFaults& faults) {
  bool all_commit = true;
  block_.roots.clear();
  std::vector<crypto::AffinePoint> commitments;
  commitments.reserve(votes.size());
  for (const auto& v : votes) {
    // 2PC decision rule: commit iff no involved cohort voted abort.
    if (v.involved && v.vote == txn::Vote::kAbort) all_commit = false;
    // Roots from cohorts that voted commit; on abort "the respective roots
    // will be missing in the block" (§4.3.1 phase 3).
    if (v.involved && v.root) block_.set_root(v.cohort, *v.root);
    commitments.push_back(v.sch_commitment);
  }
  block_.decision = all_commit || faults.force_commit ? Decision::kCommit : Decision::kAbort;
  if (faults.fake_root_victim) {
    block_.set_root(*faults.fake_root_victim,
                    crypto::sha256(to_bytes("forged-root")));  // Scenario 2
  }
  const CosiLeader::Challenge ch = leader_.challenge(commitments, block_.signing_bytes());
  const ChallengeMsg honest{ch.c, ch.v, block_};

  // An honest coordinator broadcasts: one message, every cohort receives the
  // same bytes. An equivocating one sends one message per cohort.
  const bool equivocate = faults.equivocate != CoordinatorFaults::Equivocation::kNone;
  const std::size_t m = leader_.signers().size();
  std::vector<ChallengeMsg> out(equivocate || faults.drop_last_challenge ? m : 1, honest);
  if (equivocate) {
    // The conflicting abort variant b_a of the block (Lemma 5), under the
    // same V.
    ChallengeMsg lie = honest;
    lie.block.decision = Decision::kAbort;
    lie.block.roots.clear();
    if (faults.equivocate == CoordinatorFaults::Equivocation::kMatchingChallenges) {
      lie.challenge = leader_.rechallenge(lie.block.signing_bytes());  // Case 2
    }  // Case 1 keeps the challenge, which matches only the commit block
    for (const std::size_t victim : faults.equivocation_victims) {
      if (victim < out.size()) out[victim] = lie;
    }
  }
  if (faults.drop_last_challenge && !out.empty()) out.pop_back();
  return out;
}

TfCommitOutcome TfCommitCoordinator::on_responses(std::span<const ResponseMsg> responses) {
  TfCommitOutcome outcome;

  std::vector<crypto::U256> shares;
  shares.reserve(responses.size());
  bool any_refused = false;
  for (const auto& r : responses) {
    if (r.refused) {
      any_refused = true;
      outcome.refusals.emplace_back(r.cohort, r.refusal_reason);
    }
    shares.push_back(r.sch_response);
  }

  // An invalid co-sign is still set on the block: the broadcast decision
  // carries it, and every server refuses to append it.
  const CosiLeader::Seal seal = leader_.seal(shares, any_refused);
  block_.cosign = seal.signature;
  outcome.cosign_valid = seal.valid;
  if (!seal.valid) {
    // Lemma 4: binary-search-free attribution — check each share against its
    // commitment; the server(s) with invalid shares are the culprits. The
    // coordinator is incentivised to do this: an unverifiable block makes
    // the auditor suspect the coordinator itself.
    outcome.faulty_cosigners = leader_.faulty(shares);
  }

  outcome.decision = block_.decision;
  outcome.block = block_;
  return outcome;
}

std::vector<ServerId> involved_servers(const Block& block, std::uint32_t num_servers) {
  std::unordered_set<std::uint32_t> set;
  if (num_servers == 0) return {};
  for (const auto& t : block.txns) {
    for (const ItemId item : t.rw.touched_items()) {
      set.insert(store::shard_for_item(item, num_servers).value);
    }
  }
  std::vector<ServerId> out;
  out.reserve(set.size());
  for (const std::uint32_t s : set) out.push_back(ServerId{s});
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fides::commit

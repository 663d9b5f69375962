#include "commit/two_phase_commit.hpp"

#include "commit/batch.hpp"

namespace fides::commit {

PrepareVoteMsg TwoPhaseCommitCohort::handle_prepare(const PrepareMsg& msg) {
  PrepareVoteMsg vote;
  vote.cohort = id_;

  bool involved = false;
  for (const auto& t : msg.partial_block.txns) {
    for (const ItemId item : t.rw.touched_items()) {
      if (shard_->contains(item)) {
        involved = true;
        break;
      }
    }
    if (involved) break;
  }
  vote.involved = involved;
  if (!involved) return vote;

  txn::ValidationResult result{txn::Vote::kCommit, {}};
  if (!batch_non_conflicting(msg.partial_block.txns)) {
    result = {txn::Vote::kAbort, "block packs conflicting transactions"};
  }
  for (const auto& t : msg.partial_block.txns) {
    if (!result.ok()) break;
    result = txn::validate_occ(*shard_, t);
  }
  vote.vote = result.vote;
  vote.abort_reason = result.reason;
  return vote;
}

PrepareMsg TwoPhaseCommitCoordinator::start(Block partial_block,
                                            std::vector<SignedEndTxn> requests) {
  block_ = std::move(partial_block);
  PrepareMsg msg;
  msg.partial_block = block_;
  msg.requests = std::move(requests);
  return msg;
}

TwoPhaseCommitOutcome TwoPhaseCommitCoordinator::on_votes(
    std::span<const PrepareVoteMsg> votes) {
  bool all_commit = true;
  for (const auto& v : votes) {
    if (v.involved && v.vote == txn::Vote::kAbort) all_commit = false;
  }
  block_.decision = all_commit ? Decision::kCommit : Decision::kAbort;

  TwoPhaseCommitOutcome out;
  out.decision = block_.decision;
  out.block = block_;
  return out;
}

}  // namespace fides::commit

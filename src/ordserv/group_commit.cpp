#include "ordserv/group_commit.hpp"

#include <algorithm>

#include "commit/batch.hpp"
#include "ledger/chain_validation.hpp"
#include "txn/occ.hpp"

namespace fides::ordserv {

std::optional<std::string> StreamValidator::check(
    const SequencedBlock& entry,
    const crypto::KeyRegistry& keys) {
  const ledger::Block& b = entry.block;

  if (b.height != next_height) {
    return "height " + std::to_string(b.height) + " where " +
           std::to_string(next_height) + " expected";
  }
  if (!(b.prev_hash == expected_prev)) return "prev-hash chain broken";

  switch (ledger::verify_unchained_cosign(b, keys)) {
    case ledger::CosignVerdict::kMissing:
      return "missing group co-sign";
    case ledger::CosignVerdict::kBadSignerSet:
      return b.signers.empty() ? "missing group co-sign" : "invalid signer set";
    case ledger::CosignVerdict::kBadSignature:
      return "group co-sign does not verify";
    case ledger::CosignVerdict::kOk:
      break;
  }

  for (const std::uint64_t dep : entry.depends_on) {
    if (dep >= b.height) return "dependency on a later block";
  }
  // `depends_on` is sequencer metadata, covered by no signature. Recompute
  // the dependencies from the block's own (co-signed) transactions and make
  // sure every one of them is declared — a lying OrdServ must not be able to
  // hide a cross-group dependency. std::find, not binary_search: a tampered
  // entry's list need not be sorted.
  for (const auto& t : b.txns) {
    for (const ItemId item : t.rw.touched_items()) {
      const auto it = last_touch.find(item);
      if (it == last_touch.end()) continue;
      if (std::find(entry.depends_on.begin(), entry.depends_on.end(),
                    it->second) == entry.depends_on.end()) {
        return "under-reported dependency on height " + std::to_string(it->second);
      }
    }
  }

  for (const auto& t : b.txns) {
    for (const ItemId item : t.rw.touched_items()) last_touch[item] = b.height;
  }
  expected_prev = b.digest();
  ++next_height;
  return std::nullopt;
}

std::optional<std::size_t> validate_stream(
    std::span<const SequencedBlock> stream,
    const crypto::KeyRegistry& keys) {
  StreamValidator v;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (v.check(stream[i], keys)) return i;
  }
  return std::nullopt;
}

GroupRoundResult GroupCommitRunner::run_group_block(
    std::vector<commit::SignedEndTxn> batch) {
  GroupRoundResult result;

  if (batch.empty()) {
    // No transactions → no group. Without this refusal a fabricated
    // single-server group would co-sign an empty "committed" block.
    result.fault = "empty batch refused at submission";
    return result;
  }

  // Same canonical order as the engine drivers: block bytes (and hence CoSi
  // nonces and the sequenced stream) stay bit-identical across drivers.
  commit::order_batch(batch);
  std::vector<txn::Transaction> txns = commit::batch_txns(batch);

  const ServerGroup group = group_for(txns, cluster_->num_servers());
  result.group = group;
  result.group_size = group.members.size();
  if (group.members.empty()) {
    result.fault = "batch touches no shard";
    return result;
  }

  // TFCommit among the group members only.
  commit::TfCommitCoordinator coordinator(group.members, cluster_->server_keys());

  commit::Block partial = commit::TfCommitCoordinator::make_partial_block(
      /*height=*/0, crypto::Digest::zero(), std::move(txns), group.members);
  commit::GetVoteMsg get_vote = coordinator.start(std::move(partial), std::move(batch));
  // OrdServ hands out the epoch: a unique CoSi nonce domain per round, even
  // when multiple group coordinators terminate batches concurrently. The
  // group-domain tag keeps it disjoint from the cluster engine's epochs.
  get_vote.round = group_epoch(sequencer_->epochs().reserve());

  std::vector<commit::VoteMsg> votes;
  votes.reserve(group.members.size());
  for (const ServerId s : group.members) {
    Server& server = cluster_->server(s);
    votes.push_back(
        server.tf_cohort().handle_get_vote(get_vote, server.faults().cohort));
  }

  Server& coord_server = cluster_->server(group.coordinator);
  const std::vector<commit::ChallengeMsg> challenges =
      coordinator.on_votes(votes, coord_server.faults().coordinator);
  if (challenges.size() != 1 && challenges.size() != group.members.size()) {
    // A broadcast is one message; a per-cohort fan-out is |group| messages.
    // Anything else is a malformed coordinator — refuse the round instead of
    // indexing into the vector by cohort slot (which read out of bounds
    // before this guard existed).
    result.fault = "coordinator challenge fan-out mismatch (" +
                   std::to_string(challenges.size()) + " messages for " +
                   std::to_string(group.members.size()) + " cohorts)";
    return result;
  }

  std::vector<commit::ResponseMsg> responses;
  responses.reserve(group.members.size());
  for (std::size_t i = 0; i < group.members.size(); ++i) {
    Server& server = cluster_->server(group.members[i]);
    const std::size_t slot = challenges.size() == 1 ? 0 : i;
    responses.push_back(server.tf_cohort().handle_challenge(
        get_vote.round, challenges[slot], server.faults().cohort));
  }

  const commit::TfCommitOutcome outcome = coordinator.on_responses(responses);
  result.decision = outcome.decision;
  result.cosign_valid = outcome.cosign_valid;
  result.refusals = outcome.refusals;
  result.faulty_cosigners = outcome.faulty_cosigners;
  if (!outcome.cosign_valid) {
    // An unsignable block never reaches OrdServ; the group retries or aborts
    // out-of-band (and the refusals identify the culprit).
    result.fault = "co-sign did not verify";
    return result;
  }

  result.global_height = sequencer_->submit(outcome.block, group);
  deliver_all();
  return result;
}

void GroupCommitRunner::deliver_all() {
  for (std::uint32_t s = 0; s < cluster_->num_servers(); ++s) {
    Server& server = cluster_->server(ServerId{s});
    for (const SequencedBlock* entry : sequencer_->fetch_new(ServerId{s})) {
      if (refusals_[s]) continue;  // chain already broken at this server
      // Nothing touches the shard before the entry validates: inner co-sign
      // over the unchained bytes, outer hash chain, dependency completeness.
      const auto bad =
          validators_[s].check(*entry, cluster_->server_keys());
      if (bad) {
        refusals_[s] = DeliveryRefusal{entry->block.height, *bad};
        continue;
      }
      delivered_[s].push_back(*entry);
      if (entry->block.committed()) {
        for (const auto& t : entry->block.txns) {
          txn::apply_committed(server.shard(), t);
        }
      }
    }
  }
}

}  // namespace fides::ordserv

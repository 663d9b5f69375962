#include "ordserv/group_engine.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "commit/batch.hpp"
#include "engine/round_dispatcher.hpp"
#include "ledger/chain_validation.hpp"

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

namespace {

using engine::server_node;

/// Group placement: each batch runs as one TfCommitRound on the servers it
/// touches, unchained, coordinated by the lowest member. On top of the
/// shared core it owns OrdServ policy: refusal at admission and the depth
/// cap, the round-order sequencing barrier and gtf_refuse, validated
/// delivery of the sequenced stream (gtf_seq, buffered by height), and the
/// stream's replay on recovery. As RoundObserver it sequences each outcome.
class GroupEngine final : public engine::RoundDispatcher {
 public:
  GroupEngine(Cluster& cluster, Sequencer& seq,
              std::vector<std::vector<commit::SignedEndTxn>> batches,
              engine::Scheduler& sched)
      : RoundDispatcher(cluster, sched,
                        std::min<std::size_t>(
                            std::max<std::size_t>(1, cluster.config().pipeline_depth), 8),
                        cluster.config().speculate),
        transport_(&cluster.transport()),
        seq_(&seq),
        pending_entries_(n_),
        validators_(n_),
        refusals_(n_) {
    groups_.reserve(batches.size());
    for (auto& batch : batches) {
      GroupRound g;
      if (batch.empty()) {
        // No transactions → no group. Without this refusal a fabricated
        // single-server group would co-sign an empty "committed" block.
        g.fault = "empty batch refused at submission";
      } else {
        g.group = group_for(commit::batch_txns(batch), n_);
        if (g.group.members.empty()) g.fault = "batch touches no shard";
      }
      std::unique_ptr<engine::RoundReactor> reactor;
      if (g.fault.empty()) {
        // OrdServ hands out the epoch — a unique CoSi nonce domain per round
        // even when many group coordinators run concurrently; reserved for
        // every admissible round up front, in round order, so the epoch
        // sequence (and hence every signed byte) is schedule-independent.
        reactor = std::make_unique<engine::TfCommitRound>(
            cluster, engine::RoundPlacement{g.group.members, g.group.coordinator, true},
            group_epoch(seq_->epochs().reserve()), std::move(batch), this,
            speculate_ ? this : nullptr);
      }
      groups_.push_back(std::move(g));
      add_round(std::move(reactor));  // null: refused at admission
    }
    // Seed delivery validators from the servers' existing logs, so several
    // engine runs can extend one cluster+sequencer stream (server logs are
    // prefixes of the sequenced stream under engine delivery).
    common::MutexLock lock(mutex_);
    for (std::uint32_t s = 0; s < n_; ++s) reset_validator(s);
  }

  GroupRunResult collect() EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    require_complete_locked();
    GroupRunResult result;
    for (std::size_t k = 0; k < rounds_.size(); ++k) {
      const GroupRound& g = groups_[k];
      GroupRoundResult rr;
      rr.group = g.group;
      rr.group_size = g.group.members.size();
      rr.fault = g.fault;
      if (reactors_[k] != nullptr) {
        reactors_[k]->finalize();
        const RoundMetrics& m = reactors_[k]->metrics();
        rr.decision = m.decision;
        rr.cosign_valid = m.cosign_valid;
        rr.refusals = m.refusals;
        rr.faulty_cosigners = m.faulty_cosigners;
        rr.vote_equivocators = m.vote_equivocators;
        result.spec_revotes += m.spec_revotes;
      }
      if (g.entry.has_value()) rr.global_height = g.entry->block.height;
      result.rounds.push_back(std::move(rr));
    }
    result.delivery_refusals = refusals_;
    result.wall_us = engine::since_us(t0_);
    return result;
  }

 private:
  struct GroupRound {
    ServerGroup group;
    std::string fault;
    ledger::Block block;  ///< the outcome's block, once decided
    std::optional<SequencedBlock> entry;  ///< set once sequenced
    Envelope entry_env;
    Envelope refuse_env;  ///< empty type until sealed
  };

  // --- Placement policy -------------------------------------------------------

  bool deliver_own(std::size_t k, NodeId dst, const Envelope& env, bool authentic,
                   engine::Outbox& out) override EXCLUDES(mutex_) {
    const bool entry = env.type == "gtf_seq";
    if (!entry && env.type != "gtf_refuse") return false;
    if (!authentic || dst.kind != NodeId::Kind::kServer) return true;
    common::MutexLock lock(mutex_);
    if (entry) {
      handle_entry(k, dst.id, engine::unframe_payload(env.payload), out);
    } else if (rounds_[k].pos[dst.id] != kNotMember && rounds_[k].done_at[dst.id] == 0) {
      // A refusal at member dst: no chain entry, but the round is over.
      finish_at(k, dst.id, /*applied=*/false, out);
    }
    return true;
  }

  /// A group round decided: an unsignable block never reaches OrdServ; the
  /// members learn the round is over (and who to blame) via gtf_refuse.
  void on_decided_locked(std::size_t k, const ledger::Block& block, bool appended,
                         engine::Outbox& out) override REQUIRES(mutex_) {
    groups_[k].block = block;
    if (appended) return;
    const std::string& fault = static_cast<const engine::TfCommitRound&>(*reactors_[k]).fault();
    refuse_round(k, fault.empty() ? "co-sign did not verify" : fault, out);
  }

  void after_outcome(engine::Outbox& out) override EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    advance_sequencing(out);
  }

  /// Group rounds have no cohort termination: a dead group coordinator
  /// restarts its rounds from its durable log on recovery.
  bool terminates() const override { return false; }

  void on_crash_locked(std::uint32_t s) override REQUIRES(mutex_) {
    pending_entries_[s].clear();
  }

  /// The restored log is the truth: rebuild the delivery validator from it,
  /// mark the rounds whose entries it holds, and replay — ahead of the
  /// in-flight rounds' own catch-up, over the FIFO replay stream — the
  /// sequenced entries it lacks (height order) and the refusals it missed.
  void on_recover_locked(std::uint32_t s, engine::Outbox& out) override REQUIRES(mutex_) {
    pending_entries_[s].clear();
    reset_validator(s);
    const std::uint64_t applied = cluster_->server(ServerId{s}).log().size();
    const NodeId node = server_node(s);
    for (std::size_t k = 0; k < rounds_.size(); ++k) {  // round order is height order
      const GroupRound& g = groups_[k];
      if (!g.entry.has_value()) continue;
      if (g.entry->block.height < applied) {
        mark_done_locked(k, s, /*admit=*/false);
      } else {
        out.send_replay(g.entry_env.sender, node, g.entry_env);
      }
    }
    for (std::size_t k = 0; k < rounds_.size(); ++k) {
      const GroupRound& g = groups_[k];
      if (!g.refuse_env.type.empty() && rounds_[k].pos[s] != kNotMember &&
          rounds_[k].done_at[s] == 0) {
        out.send_replay(g.refuse_env.sender, node, g.refuse_env);
      }
    }
  }

  // --- Sequencing -------------------------------------------------------------

  /// Submits decided rounds to OrdServ strictly in round order — the barrier
  /// that keeps the sequenced stream (heights, chain, dependency metadata)
  /// schedule-independent even when later groups decide first.
  void advance_sequencing(engine::Outbox& out) REQUIRES(mutex_) {
    while (next_seq_ < rounds_.size()) {
      const Round& r = rounds_[next_seq_];
      if (reactors_[next_seq_] != nullptr && !r.refused) {
        if (!r.decided) break;
        sequence_round(next_seq_, out);
      }
      ++next_seq_;
    }
  }

  void sequence_round(std::size_t k, engine::Outbox& out) REQUIRES(mutex_) {
    GroupRound& g = groups_[k];
    const std::uint64_t height = seq_->submit(g.block, g.group);
    g.entry = seq_->at(height);  // locked accessor: submit() may race
    // The gtf_seq envelope is OrdServ speaking; modeled as trusted
    // infrastructure, it borrows the lowest live server's keypair for
    // transport authentication (the group coordinator may be down by now —
    // the entry's *trust* comes from the inner co-sign, not this envelope).
    const Server* signer = lowest_live_server();
    if (signer == nullptr) {
      throw std::logic_error("no live server to publish sequenced entry from");
    }
    g.entry_env = transport_->seal(
        signer->keypair(), server_node(signer->id().value), "gtf_seq",
        engine::frame_payload(reactors_[k]->epoch(), g.entry->serialize()));
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (i > 0) transport_->count_copy(g.entry_env);
      out.send(g.entry_env.sender, server_node(i), g.entry_env);
    }
  }

  void refuse_round(std::size_t k, std::string fault, engine::Outbox& out) REQUIRES(mutex_) {
    GroupRound& g = groups_[k];
    rounds_[k].refused = true;
    g.fault = std::move(fault);
    // Tell the members the round is over (their cohort state, and under
    // speculation their pending stack, must resolve) with the completed
    // block as evidence.
    commit::DecisionMsg msg;
    msg.final_block = g.block;
    const Server* signer = cluster_->is_crashed(g.group.coordinator)
                               ? lowest_live_server()
                               : &cluster_->server(g.group.coordinator);
    if (signer != nullptr) {
      g.refuse_env = transport_->seal(
          signer->keypair(), server_node(signer->id().value), "gtf_refuse",
          engine::frame_payload(reactors_[k]->epoch(), msg.serialize()));
      for (std::size_t i = 0; i < g.group.members.size(); ++i) {
        if (i > 0) transport_->count_copy(g.refuse_env);
        out.send(g.refuse_env.sender, server_node(g.group.members[i].value), g.refuse_env);
      }
    }
    retarget_locked(k, g.group.members.size());  // only members processed the round
  }

  const Server* lowest_live_server() const {
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (!cluster_->is_crashed(ServerId{i})) return &cluster_->server(ServerId{i});
    }
    return nullptr;
  }

  // --- Delivery ---------------------------------------------------------------

  /// A sequenced entry at server s: buffered by height, drained in chain
  /// order against the server's own log.
  void handle_entry(std::size_t k, std::uint32_t s, BytesView body, engine::Outbox& out)
      REQUIRES(mutex_) {
    const auto entry = SequencedBlock::deserialize(body);
    if (!entry.has_value() || rounds_[k].done_at[s] != 0) return;
    auto& pending = pending_entries_[s];
    pending.emplace(entry->block.height, std::pair(k, *entry));
    const Server& server = cluster_->server(ServerId{s});
    while (!pending.empty()) {
      auto it = refusals_[s].has_value() ? pending.begin()
                                         : pending.find(server.log().size());
      if (it == pending.end()) break;
      auto [round, next] = std::move(it->second);
      pending.erase(it);
      process_entry(round, s, next, out);
    }
  }

  void process_entry(std::size_t k, std::uint32_t s, const SequencedBlock& entry,
                     engine::Outbox& out) REQUIRES(mutex_) {
    if (rounds_[k].done_at[s] != 0) return;
    Server& server = cluster_->server(ServerId{s});
    bool applied_to_shard = false;
    if (!refusals_[s].has_value()) {
      // Nothing touches this server's log or shard before the entry
      // validates: inner co-sign over the unchained bytes, outer hash chain,
      // dependency completeness (recomputed, not trusted).
      const auto bad = validators_[s].check(entry, cluster_->server_keys());
      if (bad.has_value()) {
        refusals_[s] = DeliveryRefusal{entry.block.height, *bad};
      } else {
        const Server::ApplyResult result = server.apply_decision(
            entry.block, Server::CosignView::kUnchained, cluster_->server_keys());
        if (result == Server::ApplyResult::kApplied) {
          server.record_decision(reactors_[k]->epoch(), "gtf_seq", entry.block);
          applied_to_shard = entry.block.committed();
        } else if (result == Server::ApplyResult::kRejected) {
          refusals_[s] = DeliveryRefusal{entry.block.height,
                                         "sequenced entry refused at apply"};
        }
        // kStale: already in the log (a duplicate raced the recovery
        // replay); the round is done at this server either way.
      }
    }
    finish_at(k, s, applied_to_shard, out);
  }

  /// Round k is over at server s. A member's cohort learns the truth first,
  /// so its speculation stack pops and contradicted later votes come back
  /// re-signed; then the round's window slot and gate advance.
  void finish_at(std::size_t k, std::uint32_t s, bool applied, engine::Outbox& out)
      REQUIRES(mutex_) {
    const std::uint64_t epoch = reactors_[k]->epoch();
    if (speculate_ && rounds_[k].pos[s] != kNotMember) {
      engine::TfCommitRound::resolve_speculation(
          *transport_, cluster_->server(ServerId{s}), epoch, applied,
          [this](std::uint64_t e) -> std::optional<NodeId> {
            const auto it = epoch_to_round_.find(e);
            if (it == epoch_to_round_.end()) return std::nullopt;
            return reactors_[it->second]->coordinator_node();
          },
          out);
    }
    mark_done_locked(k, s);
    sched_->notify_applied(s, epoch);
  }

  void reset_validator(std::uint32_t s) REQUIRES(mutex_) {
    const Server& server = cluster_->server(ServerId{s});
    validators_[s] = StreamValidator{};
    validators_[s].next_height = server.log().size();
    validators_[s].expected_prev = server.log().head_hash();
    for (const ledger::Block& b : server.log().blocks()) {
      for (const auto& t : b.txns) {
        for (const ItemId item : t.rw.touched_items()) {
          validators_[s].last_touch[item] = b.height;
        }
      }
    }
  }

  Transport* transport_;  // confined(ctor): immutable after construction
  Sequencer* seq_;        // confined(ctor): immutable after construction
  std::vector<GroupRound> groups_ GUARDED_BY(mutex_);  ///< per round
  /// Per server: delivered entries awaiting their height, with their round.
  std::vector<std::map<std::uint64_t, std::pair<std::size_t, SequencedBlock>>>
      pending_entries_ GUARDED_BY(mutex_);
  std::vector<StreamValidator> validators_ GUARDED_BY(mutex_);  ///< per server
  std::vector<std::optional<DeliveryRefusal>> refusals_
      GUARDED_BY(mutex_);  ///< per server
  std::size_t next_seq_ GUARDED_BY(mutex_){0};  ///< next round to submit
};

}  // namespace

GroupRunResult run_group_rounds(Cluster& cluster, Sequencer& sequencer,
                                std::vector<std::vector<commit::SignedEndTxn>> batches,
                                engine::Scheduler& sched) {
  GroupEngine eng(cluster, sequencer, std::move(batches), sched);
  eng.run();
  return eng.collect();
}

}  // namespace fides::ordserv

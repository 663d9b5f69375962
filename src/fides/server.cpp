#include "fides/server.hpp"

#include "common/cpu_time.hpp"
#include "ledger/chain_validation.hpp"
#include "txn/occ.hpp"

namespace fides {

Server::Server(ServerId id, const ClusterConfig& config, common::ThreadPool* pool,
               ledger::RoundLog* durable)
    : id_(id),
      keypair_(crypto::KeyPair::deterministic(0x5EB0'0000ULL + id.value)),
      shard_(ShardId{id.value},
             store::items_for_shard(ShardId{id.value}, config.num_servers,
                                    config.items_per_shard),
             config.initial_value, config.versioning, pool),
      owned_round_log_(durable == nullptr ? std::make_unique<ledger::MemRoundLog>() : nullptr),
      round_log_(durable != nullptr ? durable : owned_round_log_.get()),
      witness_(keypair_, *round_log_),
      tf_cohort_(id, witness_, shard_),
      tpc_cohort_(id, shard_) {}

void Server::handle_begin(ClientId /*client*/, TxnId /*txn*/) {
  // Begin Transaction carries no state in this design: reads/writes name
  // their transaction explicitly and OCC validation happens at termination.
  // The handler exists because the paper's client protocol sends it (§4.1
  // step 1) and the signed envelope lands in the client-message log.
}

store::ReadResult Server::handle_read(ClientId /*client*/, TxnId /*txn*/, ItemId item) {
  store::ReadResult result = shard_.read(item);

  const bool strike =
      faults_.read_fault != ReadFault::kNone &&
      (!faults_.read_fault_item || *faults_.read_fault_item == item);
  if (strike) {
    switch (faults_.read_fault) {
      case ReadFault::kStaleValue: {
        // Figure 10: return a previous value with up-to-date timestamps.
        const auto prev = shard_.mode() == store::VersioningMode::kMulti &&
                                  shard_.peek(item).wts.logical > 0
                              ? shard_.value_at_version(
                                    item, Timestamp{shard_.peek(item).wts.logical - 1,
                                                    ~std::uint32_t{0}})
                              : std::nullopt;
        result.value = prev ? *prev : to_bytes("stale");
        break;
      }
      case ReadFault::kGarbageValue:
        result.value = to_bytes("garbage");
        break;
      case ReadFault::kNone:
        break;
    }
  }
  return result;
}

WriteAck Server::handle_write(ClientId /*client*/, TxnId /*txn*/, ItemId item,
                              Bytes /*value*/) {
  const store::ItemRecord& old = shard_.peek(item);
  return WriteAck{item, old.value, old.rts, old.wts};
}

Server::ApplyResult Server::apply_decision(const ledger::Block& block, CosignView view,
                                           const crypto::KeyRegistry& keys) {
  const ledger::CosignVerdict verdict =
      view == CosignView::kChained     ? ledger::verify_block_cosign(block, keys)
      : view == CosignView::kUnchained ? ledger::verify_unchained_cosign(block, keys)
                                       : ledger::CosignVerdict::kOk;
  if (verdict != ledger::CosignVerdict::kOk) return ApplyResult::kRejected;
  if (block.height < log_.size()) return ApplyResult::kStale;
  if (block.height > log_.size()) return ApplyResult::kFuture;
  if (!(block.prev_hash == log_.head_hash())) {
    // Right height, wrong chain: a block whose prev-hash this server's log
    // cannot host (e.g. a forged chain position smuggled past a speculative
    // cohort, which defers the chain check to exactly this point). Refuse
    // rather than let the log's append discipline throw mid-round.
    return ApplyResult::kRejected;
  }
  apply_block(block);
  return ApplyResult::kApplied;
}

Bytes Server::vote_once(std::uint64_t epoch, std::uint64_t base,
                        const std::string& msg_type, Bytes computed) {
  const auto it = votes_by_epoch_base_.find({epoch, base});
  if (it != votes_by_epoch_base_.end()) return it->second;
  ledger::RoundRecord rec;
  rec.type = ledger::RoundRecord::Type::kVote;
  rec.epoch = epoch;
  rec.base = base;
  rec.msg_type = msg_type;
  rec.payload = computed;
  round_log_->append(rec);
  votes_by_epoch_base_.emplace(std::make_pair(epoch, base), computed);
  latest_vote_base_[epoch] = base;
  return computed;
}

const Bytes* Server::logged_vote(std::uint64_t epoch) const {
  const auto it = latest_vote_base_.find(epoch);
  if (it == latest_vote_base_.end()) return nullptr;
  return logged_vote(epoch, it->second);
}

const Bytes* Server::logged_vote(std::uint64_t epoch, std::uint64_t base) const {
  const auto it = votes_by_epoch_base_.find({epoch, base});
  return it == votes_by_epoch_base_.end() ? nullptr : &it->second;
}

void Server::record_decision(std::uint64_t epoch, const std::string& msg_type,
                             const ledger::Block& block) {
  ledger::RoundRecord rec;
  rec.type = ledger::RoundRecord::Type::kDecision;
  rec.epoch = epoch;
  rec.msg_type = msg_type;
  rec.payload = block.serialize();
  round_log_->append(rec);
}

bool Server::restore() {
  const auto records = round_log_->replay();
  if (!records.has_value()) return false;  // integrity violation: refuse
  witness_.restore(*records);
  for (const ledger::RoundRecord& rec : *records) {
    if (rec.type == ledger::RoundRecord::Type::kVote) {
      votes_by_epoch_base_.emplace(std::make_pair(rec.epoch, rec.base), rec.payload);
      latest_vote_base_[rec.epoch] = rec.base;  // replay order = record order
    } else if (rec.type == ledger::RoundRecord::Type::kDecision) {
      const auto block = ledger::Block::deserialize(rec.payload);
      if (!block.has_value()) return false;
      apply_block(*block);
    }
  }
  return true;
}

void Server::apply_block(const ledger::Block& block) {
  log_.append(block);
  if (!block.committed()) return;
  const double start = common::thread_cpu_time_us();
  for (const auto& t : block.txns) {
    // Honest application first; datastore faults strike afterwards so the
    // Merkle tree (and hence future signed roots) match the block while the
    // actual stored value does not — the §5 Scenario 3 shape.
    const std::optional<ItemId>& skip = faults_.skip_write_item;
    std::optional<Bytes> kept;  // the live value skip_write_item puts back
    if (skip && shard_.contains(*skip) && t.rw.find_write(*skip) != nullptr) {
      kept = shard_.peek(*skip).value;
    }
    txn::apply_committed(shard_, t);
    if (kept) {
      // Pretend to apply: tree and version chain advance (they feed the
      // signed roots) but the live value silently keeps its old content.
      shard_.corrupt_value(*skip, *kept);
      shard_.corrupt_version(*skip, t.commit_ts, *kept);
    }
    if (faults_.corrupt_after_commit_item) {
      const ItemId victim = *faults_.corrupt_after_commit_item;
      if (shard_.contains(victim)) {
        shard_.corrupt_value(victim, to_bytes("corrupted"));
        shard_.corrupt_version(victim, t.commit_ts, to_bytes("corrupted"));
      }
    }
  }
  add_mht_time_us(common::thread_cpu_time_us() - start);
}

std::vector<AuditItemProof> Server::audit_items(std::span<const ItemId> items,
                                                const Timestamp& ts) const {
  // Multi-versioned: one version-tree rebuild serves every proof.
  std::optional<merkle::MerkleTree> past;
  if (shard_.mode() == store::VersioningMode::kMulti) past = shard_.tree_at_version(ts);
  const merkle::MerkleTree& tree = past ? *past : shard_.tree();
  std::vector<AuditItemProof> proofs;
  proofs.reserve(items.size());
  for (const ItemId item : items) {
    const std::size_t leaf = shard_.leaf_index(item);
    AuditItemProof proof;
    proof.id = item;
    proof.value = past ? shard_.value_at(leaf, ts).value_or(Bytes{})
                       : shard_.record_at(leaf).value;
    proof.vo = merkle::make_vo(tree, leaf);
    proofs.push_back(std::move(proof));
  }
  return proofs;
}

}  // namespace fides

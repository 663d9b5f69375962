#include "audit/auditor.hpp"

#include <algorithm>
#include <unordered_map>

namespace fides::audit {

namespace {

/// Replay state per item: the latest committed value and timestamps implied
/// by the log prefix processed so far.
struct ReplayItem {
  std::optional<Bytes> value;  ///< nullopt until first logged write
  Timestamp rts;
  Timestamp wts;
};

/// One server's share of the datastore check: the items it must prove and,
/// for each, the value the log says it holds.
struct ServerWrites {
  std::vector<ItemId> items;
  std::vector<const Bytes*> expected;

  void add(ItemId item, const Bytes* value) {
    items.push_back(item);
    expected.push_back(value);
  }
};

}  // namespace

AuditReport Auditor::run() {
  AuditReport report;
  const std::span<const ledger::Block> log = select_log(report);
  if (log.empty()) return report;
  check_history(log, report);
  if (options_.datastore != DatastorePolicy::kNone) check_datastores(log, report);
  return report;
}

std::vector<ledger::Block> Auditor::collect_and_select(AuditReport& report) {
  const std::span<const ledger::Block> log = select_log(report);
  return {log.begin(), log.end()};
}

std::span<const ledger::Block> Auditor::select_log(AuditReport& report) {
  // Step 1: gather every server's log — views, not copies.
  std::vector<std::span<const ledger::Block>> logs;
  logs.reserve(cluster_->num_servers());
  for (std::uint32_t i = 0; i < cluster_->num_servers(); ++i) {
    logs.emplace_back(cluster_->server(ServerId{i}).audit_log());
  }

  // Step 2: validate and adopt. Detailed per-block issues feed attribution.
  const ledger::LogSelection sel =
      ledger::select_correct_log(logs, cluster_->server_keys());

  for (const std::size_t bad : sel.invalid) {
    const ledger::ChainCheckResult& check = sel.checks[bad];
    for (const auto& issue : check.issues) {
      const bool cosign_issue = issue.what.find("signature") != std::string::npos;
      report.violations.push_back(Violation{
          cosign_issue ? ViolationKind::kInvalidCosign : ViolationKind::kTamperedLog,
          ServerId{static_cast<std::uint32_t>(bad)}, issue.block_index, std::nullopt,
          issue.what});
    }
    if (check.issues.empty()) {
      report.violations.push_back(Violation{ViolationKind::kTamperedLog,
                                            ServerId{static_cast<std::uint32_t>(bad)},
                                            std::nullopt, std::nullopt,
                                            "log failed validation"});
    }
  }
  for (const std::size_t shorty : sel.incomplete) {
    report.violations.push_back(
        Violation{ViolationKind::kIncompleteLog,
                  ServerId{static_cast<std::uint32_t>(shorty)}, logs[shorty].size(),
                  std::nullopt,
                  "log omits the tail: " + std::to_string(logs[shorty].size()) +
                      " blocks vs " + std::to_string(logs[*sel.chosen].size()) +
                      " in the adopted log"});
  }

  if (!sel.chosen) {
    report.violations.push_back(
        Violation{ViolationKind::kNoValidLog, std::nullopt, std::nullopt, std::nullopt,
                  "every collected log fails validation; the >=1-correct-server "
                  "assumption does not hold"});
    return {};
  }

  // Cross-check: two *valid* logs must agree block-for-block on their common
  // prefix; a divergence would mean one co-sign covers two different blocks
  // (atomicity violation, Lemma 5) — cryptographically impossible unless all
  // servers collude, but we check rather than assume. Compares the digests
  // validation already computed.
  const std::vector<crypto::Digest>& adopted = sel.checks[*sel.chosen].digests;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    if (i == *sel.chosen || !sel.checks[i].ok) continue;
    const std::vector<crypto::Digest>& other = sel.checks[i].digests;
    const std::size_t common = std::min(adopted.size(), other.size());
    for (std::size_t b = 0; b < common; ++b) {
      if (!(adopted[b] == other[b])) {
        report.violations.push_back(Violation{
            ViolationKind::kAtomicityViolation, ServerId{static_cast<std::uint32_t>(i)},
            b, std::nullopt, "valid logs diverge: different blocks at the same height"});
        break;
      }
    }
  }

  report.adopted_log_source = ServerId{static_cast<std::uint32_t>(*sel.chosen)};
  report.blocks_audited = logs[*sel.chosen].size();
  return logs[*sel.chosen];
}

void Auditor::check_history(std::span<const ledger::Block> log, AuditReport& report) {
  std::unordered_map<ItemId, ReplayItem> state;
  Timestamp last_commit_ts = kTimestampZero;

  for (std::size_t b = 0; b < log.size(); ++b) {
    const ledger::Block& block = log[b];
    if (!block.committed()) continue;

    for (const auto& txn : block.txns) {
      const Timestamp ts = txn.commit_ts;
      if (!(last_commit_ts < ts)) {
        report.violations.push_back(Violation{
            ViolationKind::kSerializabilityViolation, std::nullopt, b, ts,
            "commit timestamps are not monotonically increasing along the log"});
      }
      last_commit_ts = std::max(last_commit_ts, ts);

      // Lemma 1: reads must return the latest committed value. Items never
      // written in the log prefix are unknown to the auditor (their initial
      // values predate the log) and are skipped.
      for (const auto& r : txn.rw.reads) {
        auto& item = state[r.id];
        if (item.value && !(r.value == *item.value)) {
          report.violations.push_back(Violation{
              ViolationKind::kIncorrectRead, cluster_->owner_of(r.id), b, ts,
              "read of item " + std::to_string(r.id) +
                  " returned a value that does not match the last committed write"});
        }
        // Lemma 3 / RW rule: the version read must precede the reader.
        if (!(r.wts < ts)) {
          report.violations.push_back(
              Violation{ViolationKind::kSerializabilityViolation,
                        cluster_->owner_of(r.id), b, ts,
                        "RW-conflict: read version timestamp >= commit timestamp"});
        }
        if (item.value && !(item.wts == r.wts)) {
          report.violations.push_back(Violation{
              ViolationKind::kIncorrectRead, cluster_->owner_of(r.id), b, ts,
              "read of item " + std::to_string(r.id) +
                  " reports a version timestamp inconsistent with the log"});
        }
        item.rts = std::max(item.rts, ts);
      }

      // Lemma 3 / WW + WR rules over the replayed state.
      for (const auto& w : txn.rw.writes) {
        auto& item = state[w.id];
        if (!(item.wts < ts)) {
          report.violations.push_back(
              Violation{ViolationKind::kSerializabilityViolation,
                        cluster_->owner_of(w.id), b, ts,
                        "WW-conflict: item already written at a later-or-equal "
                        "timestamp"});
        }
        if (!(item.rts < ts) && !(item.rts == ts)) {
          report.violations.push_back(
              Violation{ViolationKind::kSerializabilityViolation,
                        cluster_->owner_of(w.id), b, ts,
                        "WR-conflict: item read at a later timestamp"});
        }
        item.value = w.new_value;
        item.wts = ts;
        item.rts = std::max(item.rts, ts);
      }
    }
  }

  // Graph view of the same property: the serialization graph must be acyclic
  // and every conflict edge must agree with timestamp order.
  const SerializationGraph graph = SerializationGraph::build(log);
  if (graph.has_cycle()) {
    report.violations.push_back(Violation{ViolationKind::kSerializabilityViolation,
                                          std::nullopt, std::nullopt, std::nullopt,
                                          "serialization graph contains a cycle"});
  }
  for (const auto& edge : graph.timestamp_order_violations(log)) {
    report.violations.push_back(Violation{
        ViolationKind::kSerializabilityViolation, cluster_->owner_of(edge.item),
        edge.to.block, log[edge.to.block].txns[edge.to.index].commit_ts,
        "conflict edge on item " + std::to_string(edge.item) +
            " contradicts commit-timestamp order"});
  }
}

Timestamp Auditor::block_version(const ledger::Block& block) {
  Timestamp version = kTimestampZero;
  for (const auto& t : block.txns) version = std::max(version, t.commit_ts);
  return version;
}

bool Auditor::authenticate_item(ServerId server, ItemId item, const Timestamp& version,
                                const ledger::Block& block, const Bytes* expected_value,
                                AuditReport& report) {
  return authenticate_items(server, std::span(&item, 1), std::span(&expected_value, 1),
                            version, block, report);
}

bool Auditor::authenticate_items(ServerId server, std::span<const ItemId> items,
                                 std::span<const Bytes* const> expected_values,
                                 const Timestamp& version, const ledger::Block& block,
                                 AuditReport& report) {
  const crypto::Digest* signed_root = block.root_of(server);
  if (signed_root == nullptr) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      report.violations.push_back(Violation{
          ViolationKind::kDatastoreCorruption, server, block.height, version,
          "committed block carries no Merkle root for the item's owner"});
    }
    return false;
  }
  const std::vector<AuditItemProof> proofs =
      cluster_->server(server).audit_items(items, version);
  std::vector<crypto::Digest> leaves;
  std::vector<const merkle::VerificationObject*> vos;
  leaves.reserve(proofs.size());
  vos.reserve(proofs.size());
  for (const AuditItemProof& proof : proofs) {
    leaves.push_back(store::item_leaf_digest(proof.id, proof.value));
    vos.push_back(&proof.vo);
  }
  const std::vector<bool> folds = merkle::verify_vos(leaves, vos, *signed_root);
  report.items_authenticated += proofs.size();

  bool clean = true;
  for (std::size_t i = 0; i < proofs.size(); ++i) {
    const AuditItemProof& proof = proofs[i];
    if (expected_values[i] != nullptr && !(proof.value == *expected_values[i])) {
      report.violations.push_back(
          Violation{ViolationKind::kDatastoreCorruption, server, block.height, version,
                    "stored value of item " + std::to_string(proof.id) +
                        " differs from the committed write"});
      clean = false;
    }
    if (!folds[i]) {
      report.violations.push_back(
          Violation{ViolationKind::kDatastoreCorruption, server, block.height, version,
                    "verification object for item " + std::to_string(proof.id) +
                        " does not fold to the collectively signed root"});
      clean = false;
    }
  }
  return clean;
}

void Auditor::check_datastores(std::span<const ledger::Block> log, AuditReport& report) {
  if (log.empty()) return;

  // Exhaustive (per-version) auditing needs version chains; single-versioned
  // datastores can only be authenticated at their latest state (§4.2.2).
  DatastorePolicy policy = options_.datastore;
  if (policy == DatastorePolicy::kExhaustive &&
      cluster_->config().versioning == store::VersioningMode::kSingle) {
    policy = DatastorePolicy::kLatestOnly;
  }

  if (policy == DatastorePolicy::kExhaustive) {
    // Audit every committed block at its version — the multi-versioned
    // exhaustive policy of §4.2.2; identifies the *precise* version at which
    // a datastore became inconsistent (Lemma 2). Writes are grouped per
    // owning server so each server reconstructs its version tree once per
    // block, not once per item, and its proofs fold together.
    for (const auto& block : log) {
      if (!block.committed()) continue;
      const Timestamp version = block_version(block);
      std::unordered_map<std::uint32_t, ServerWrites> per_server;
      for (const auto& t : block.txns) {
        for (const auto& w : t.rw.writes) {
          per_server[cluster_->owner_of(w.id).value].add(w.id, &w.new_value);
        }
      }
      for (const auto& [server_raw, writes] : per_server) {
        authenticate_items(ServerId{server_raw}, writes.items, writes.expected, version,
                           block, report);
      }
    }
    return;
  }

  // kLatestOnly: authenticate each server's final shard state against the
  // most recent block carrying that server's root (§4.2.2, the
  // single-versioned policy). Expected values come from the last logged
  // write of each item; one pass sorts them into per-owner lists, each in
  // last_write's iteration order, and each server answers one request.
  std::unordered_map<ItemId, const Bytes*> last_write;
  for (const auto& block : log) {
    if (!block.committed()) continue;
    for (const auto& t : block.txns) {
      for (const auto& w : t.rw.writes) last_write[w.id] = &w.new_value;
    }
  }
  std::vector<ServerWrites> per_server(cluster_->num_servers());
  for (const auto& [item, value] : last_write) {
    per_server[cluster_->owner_of(item).value].add(item, value);
  }
  for (std::uint32_t s = 0; s < cluster_->num_servers(); ++s) {
    const ServerId server{s};
    const ledger::Block* latest = nullptr;
    for (auto it = log.rbegin(); it != log.rend(); ++it) {
      if (it->committed() && it->root_of(server) != nullptr) {
        latest = &*it;
        break;
      }
    }
    if (latest == nullptr) continue;
    authenticate_items(server, per_server[s].items, per_server[s].expected,
                       block_version(*latest), *latest, report);
  }
}

}  // namespace fides::audit

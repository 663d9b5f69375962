// The external auditor (§3.3, §4.5 Theorem 1: verifiable ACID).
//
// Audit procedure:
//   1. Gather the tamper-proof logs from all servers.
//   2. Identify the correct & complete log (co-sign + hash chain validation,
//      longest valid chain; Lemmas 6 & 7).
//   3. Replay the adopted log: every read must return the latest committed
//      value (Lemma 1); every conflict must respect commit-timestamp order
//      and the serialization graph must be acyclic (Lemma 3).
//   4. Authenticate datastores: ask each server, in one request per signed
//      root, for (value, verification object) of the items the log wrote;
//      each value must match the log and each VO must fold to the
//      collectively signed Merkle root (Lemma 2). The paper folds the
//      block's value through the VO; we additionally compare the server's
//      *claimed* value against the log, which is what makes single-leaf
//      corruption with otherwise-honest siblings detectable — see DESIGN.md.
//
// Atomicity (Lemma 5) and CoSi misbehaviour (Lemma 4) surface during step 2
// as invalid co-signs / divergent blocks, or earlier inside TFCommit itself
// (refusals, faulty-cosigner attribution).
//
// Cost of step 2: the auditor reads every server's log in place (no copies)
// and validates them through one per-audit ledger::ChainMemo, so each
// *distinct* block is hashed and co-sign-verified once per audit; the other
// n-1 copies of an honest block are only compared memberwise against it. A
// copy differing in any field is hashed and verified on its own. Attribution
// and the cross-log check reuse the per-log validation results.
//
// Cost of step 4: the single-versioned policy (kLatestOnly) sends each server
// one request for all its written items; the exhaustive policy sends one per
// (block, server). Each reply's VOs fold together through
// merkle::verify_vos, which hashes each Merkle pair their paths share once,
// not once per item.
#pragma once

#include "audit/report.hpp"
#include "audit/serialization_graph.hpp"
#include "fides/cluster.hpp"
#include "ledger/chain_validation.hpp"

namespace fides::audit {

/// Datastore-audit policy (§4.2.2): audit the latest version only, audit
/// every committed version exhaustively, or skip (history checks only).
enum class DatastorePolicy : std::uint8_t {
  kNone,
  kLatestOnly,
  kExhaustive,
};

struct AuditorOptions {
  DatastorePolicy datastore{DatastorePolicy::kExhaustive};
};

class Auditor {
 public:
  explicit Auditor(Cluster& cluster, AuditorOptions options = {})
      : cluster_(&cluster), options_(options) {}

  /// Full audit: steps 1-4 above. Never mutates server state.
  AuditReport run();

  // Individual phases, exposed for targeted tests and the examples.

  /// Steps 1-2. Populates tamper/incomplete/no-valid-log violations and
  /// returns a copy of the adopted log (empty when none is valid).
  std::vector<ledger::Block> collect_and_select(AuditReport& report);

  /// Step 3 over an adopted log.
  void check_history(std::span<const ledger::Block> log, AuditReport& report);

  /// Step 4 over an adopted log.
  void check_datastores(std::span<const ledger::Block> log, AuditReport& report);

  /// Authenticates one item on one server against the signed root in
  /// `block` (the §5 Scenario 3 walkthrough). `version` must be the state
  /// the block's root represents — i.e. the block's final commit timestamp
  /// (roots are per block: they reflect all of the block's writes).
  /// `expected_value`, when given, is compared against the server's claimed
  /// value. Returns true when clean. The one-item case of the batched check
  /// step 4 runs, so it reports exactly what step 4 would.
  bool authenticate_item(ServerId server, ItemId item, const Timestamp& version,
                         const ledger::Block& block, const Bytes* expected_value,
                         AuditReport& report);

  /// The version a block's Σroots represent: the greatest commit timestamp
  /// among its transactions.
  static Timestamp block_version(const ledger::Block& block);

 private:
  /// Steps 1-2 without copies: the adopted log as a view of its server's
  /// audit_log() (empty when no log is valid).
  std::span<const ledger::Block> select_log(AuditReport& report);

  /// Authenticates `items` of one server against the root `block` signed
  /// for it: one audit_items request, and one merkle::verify_vos fold over
  /// the replies. Item i's claimed value is compared with
  /// `expected_values[i]` when that is non-null. Violations are reported in
  /// item order. Returns true when every item is clean.
  bool authenticate_items(ServerId server, std::span<const ItemId> items,
                          std::span<const Bytes* const> expected_values,
                          const Timestamp& version, const ledger::Block& block,
                          AuditReport& report);

  Cluster* cluster_;
  AuditorOptions options_;
};

}  // namespace fides::audit

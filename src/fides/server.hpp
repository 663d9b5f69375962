// A Fides database server (§3.1, Figure 3).
//
// Four components: an execution layer (transactional reads/writes against
// the client), a commitment layer (TFCommit cohort / 2PC cohort), the
// datastore (one shard), and the tamper-proof log. The server also keeps the
// signed client-message log that §3.2 prescribes as a defence against
// falsified client accusations.
//
// A server configured with a FaultConfig deviates exactly where the config
// says; everything else stays honest, so each test isolates one failure.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "commit/two_phase_commit.hpp"
#include "fides/fault_config.hpp"
#include "fides/transport.hpp"
#include "ledger/log.hpp"
#include "ledger/round_log.hpp"

namespace fides {

/// Acknowledgement of a write (§4.2.1): the old value and timestamps of the
/// item, enabling blind-write bookkeeping at the client. The write itself
/// stays buffered in the client's write set until a decided block commits it.
struct WriteAck {
  ItemId id{};
  Bytes old_value;
  Timestamp rts;
  Timestamp wts;
};

/// What the server returns to an audit request for one item at one version:
/// its claimed value and a Merkle Verification Object for it.
struct AuditItemProof {
  ItemId id{};
  Bytes value;
  merkle::VerificationObject vo;
};

class Server {
 public:
  /// `pool`, when given, parallelizes this server's Merkle tree builds
  /// (initial provisioning, audit rebuilds). Not owned; must outlive the
  /// server. Null keeps everything on the calling thread.
  ///
  /// `durable`, when given, is the server's crash-surviving round log — it
  /// outlives this object (the Cluster owns it), so a replacement Server
  /// can restore() from it after a crash. Null gives the server a private
  /// in-memory log (durability scoped to the object's lifetime — enough for
  /// the unit tests that construct Servers directly).
  Server(ServerId id, const ClusterConfig& config, common::ThreadPool* pool = nullptr,
         ledger::RoundLog* durable = nullptr);

  ServerId id() const { return id_; }
  const crypto::KeyPair& keypair() const { return keypair_; }
  const crypto::PublicKey& public_key() const { return keypair_.public_key(); }

  store::Shard& shard() { return shard_; }
  const store::Shard& shard() const { return shard_; }
  ledger::TamperProofLog& log() { return log_; }
  const ledger::TamperProofLog& log() const { return log_; }

  FaultConfig& faults() { return faults_; }
  const FaultConfig& faults() const { return faults_; }

  // --- Execution layer -------------------------------------------------------

  void handle_begin(ClientId client, TxnId txn);

  /// Read path; a faulty execution layer corrupts the returned value here
  /// while leaving timestamps intact (Scenario 1).
  store::ReadResult handle_read(ClientId client, TxnId txn, ItemId item);

  /// Acknowledges a write with the old item state. The value itself travels
  /// in the client's end-transaction request and reaches the datastore only
  /// when a decided block commits it (apply_decision).
  WriteAck handle_write(ClientId client, TxnId txn, ItemId item, Bytes value);

  // --- Commitment layer ------------------------------------------------------

  /// The server's one CoSi witness: every co-sign it gives (commit rounds,
  /// cohort termination, checkpoints) goes through it.
  commit::CosiWitness& witness() { return witness_; }
  commit::TfCommitCohort& tf_cohort() { return tf_cohort_; }
  commit::TwoPhaseCommitCohort& tpc_cohort() { return tpc_cohort_; }

  /// What a delivered decision did to this server's state. The engine fires
  /// the pipeline watermark only for kApplied/kRejected (the server
  /// *processed* this round's decision); kStale and kFuture are recovery-era
  /// stragglers that change nothing.
  enum class ApplyResult {
    kApplied,   ///< appended (and applied when committed)
    kRejected,  ///< bad co-sign or broken chain: processed and refused —
                ///< never appended
    kStale,     ///< block already in the log (redelivery after restore)
    kFuture,    ///< ahead of this log's head (in-flight copy outran the
                ///< recovery replay stream; the replay re-supplies order)
  };

  /// Which co-sign a decided block must carry to be applied.
  enum class CosignView : std::uint8_t {
    kChained,    ///< TFCommit decision: over the block as it will be logged
    kUnchained,  ///< OrdServ entry (§4.6): the group signed height 0 / zero
                 ///< prev-hash under the block's own signer set, and OrdServ
                 ///< filled the chain position afterwards
    kNone,       ///< 2PC decision: no co-sign (2PC trusts the coordinator)
  };

  /// The one entry from a decided block to this server's state (steps 6-7
  /// of §4.1), for TFCommit decisions, OrdServ entries and 2PC decisions
  /// alike. In order: the co-sign under `view` (against `keys`); the height
  /// against the log's (kStale below it, kFuture above it); the prev-hash
  /// against the log head. A bad co-sign or a prev-hash the log cannot host
  /// is kRejected and changes nothing. Otherwise the block is appended and,
  /// on commit, each transaction goes through txn::apply_committed. The
  /// datastore-layer faults strike right after that honest application.
  ApplyResult apply_decision(const ledger::Block& block, CosignView view,
                             const crypto::KeyRegistry& keys);

  // --- Crash durability (ledger/round_log.hpp) -------------------------------

  ledger::RoundLog& round_log() { return *round_log_; }

  /// Vote-once across restarts: returns the durably recorded vote bytes for
  /// (epoch, base) if one exists, otherwise records `computed` under it and
  /// returns it. The caller sends exactly the returned bytes, so a server
  /// can never emit two different votes for one (round, speculated base) —
  /// even when the second emission happens after a crash and restore. A
  /// re-vote on a *changed* base is a new logical vote and gets a new
  /// record; `base` is 0 for votes on fully-applied state (every vote of
  /// the non-speculative protocol).
  Bytes vote_once(std::uint64_t epoch, std::uint64_t base, const std::string& msg_type,
                  Bytes computed);
  Bytes vote_once(std::uint64_t epoch, const std::string& msg_type, Bytes computed) {
    return vote_once(epoch, 0, msg_type, std::move(computed));
  }

  /// The most recently recorded vote for `epoch` (any base), if any.
  const Bytes* logged_vote(std::uint64_t epoch) const;

  /// The recorded vote for exactly (epoch, base), if any.
  const Bytes* logged_vote(std::uint64_t epoch, std::uint64_t base) const;

  /// Durably records a decision the server has appended and applied; replay
  /// of these records is what restore() rebuilds the ledger and shard from.
  void record_decision(std::uint64_t epoch, const std::string& msg_type,
                       const ledger::Block& block);

  /// Rebuilds ledger, shard, the vote map and the witness's respond-once
  /// guard from the durable round log.
  /// Returns false — leaving the server empty — if the log fails its
  /// chained integrity check (a tampered log must refuse to restore: its
  /// recorded votes can no longer be trusted not to equivocate).
  bool restore();

  // --- Audit interface -------------------------------------------------------

  /// Produces (value, VO) for each of `items` at version `ts` (multi-
  /// versioned; one version-tree rebuild serves all proofs) or for the
  /// current state (single-versioned; `ts` ignored), from the server's
  /// *actual* datastore: a corrupted store yields a proof that cannot
  /// authenticate against the co-signed root (Lemma 2). The auditor makes
  /// one such request per signed root it checks.
  std::vector<AuditItemProof> audit_items(std::span<const ItemId> items,
                                          const Timestamp& ts) const;

  /// The server's log as handed to the auditor. A log-layer-faulty server
  /// hands over its (tampered) log verbatim — the audit catches it.
  const std::vector<ledger::Block>& audit_log() const { return log_.blocks(); }

  // --- Client-message log (§3.2) ---------------------------------------------

  void record_client_message(Envelope env) { client_messages_.push_back(std::move(env)); }
  const std::vector<Envelope>& client_message_log() const { return client_messages_; }

  /// Cumulative wall time spent in Merkle-root computation on this server
  /// (vote-phase root_after + commit-phase leaf updates) — the "MHT update
  /// time" series of Figure 14.
  double mht_time_us() const { return mht_time_us_; }
  void add_mht_time_us(double us) { mht_time_us_ += us; }

 private:
  /// Appends a checked block and, on commit, applies it to the shard — the
  /// step apply_decision and restore replay share.
  void apply_block(const ledger::Block& block);

  ServerId id_;
  crypto::KeyPair keypair_;
  store::Shard shard_;
  ledger::TamperProofLog log_;
  std::unique_ptr<ledger::RoundLog> owned_round_log_;  ///< when not given one
  ledger::RoundLog* round_log_;
  commit::CosiWitness witness_;
  commit::TfCommitCohort tf_cohort_;
  commit::TwoPhaseCommitCohort tpc_cohort_;
  FaultConfig faults_;
  std::vector<Envelope> client_messages_;
  double mht_time_us_{0};

  /// Durable votes, replayed: (epoch, speculated-base key) -> vote bytes.
  std::map<std::pair<std::uint64_t, std::uint64_t>, Bytes> votes_by_epoch_base_;
  /// Most recently recorded base per epoch (what a redelivered opening or a
  /// termination query answers with).
  std::map<std::uint64_t, std::uint64_t> latest_vote_base_;
};

}  // namespace fides

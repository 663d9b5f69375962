// Protocol round reactors — the one definition of the commit/checkpoint
// choreography.
//
// Each reactor drives one round of its protocol as a message-consuming state
// machine: start() emits the opening broadcast, on_deliver() handles one
// arrived envelope (already authenticated by the dispatcher) and emits the
// follow-up sends. The same reactors run under the in-process scheduler,
// over SimNet, and over sockets. One round dispatcher
// (engine/round_dispatcher.hpp) drives them, under two placement policies:
// global rounds (engine/pipeline.cpp) and group rounds
// (ordserv/group_engine.cpp), which differ only in the RoundPlacement they
// hand TfCommitRound. There is no second copy of the phase logic anywhere.
//
// Thread-safety contract (what makes the concurrent in-process scheduler
// deterministic): all state a handler touches is either (a) owned by the
// destination node — server objects, coordinator inboxes — and the
// scheduler serializes deliveries per destination, or (b) a per-slot array
// indexed by the authenticated sender, written by exactly one handler.
// Aggregation fires when the last expected message arrives, regardless of
// arrival order, so outcomes do not depend on the interleaving.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>

#include "engine/scheduler.hpp"
#include "fides/cluster.hpp"

namespace fides::engine {

/// Progress callbacks from a round reactor to its dispatcher.
class RoundObserver {
 public:
  virtual ~RoundObserver() = default;
  /// `server` fully processed the round's decision message (log append +
  /// datastore apply attempted): the round is over there. This passes the
  /// server's opening gate for the next round and frees its window slot.
  virtual void on_decision_processed(std::uint64_t epoch, std::uint32_t server) = 0;

  /// The round's final block exists (coordinator aggregation finished, or
  /// the surviving cohorts co-signed a termination abort). `appended` says
  /// whether the block's co-sign verified; fired at most once per round, in
  /// round order among the rounds sharing a server. The decided prefix —
  /// projected opening positions, vote-tag validation, authoritative shard
  /// roots, group sequencing — advances from exactly this event.
  virtual void on_outcome(std::uint64_t epoch, const ledger::Block& block, bool appended,
                          Outbox& out) = 0;
};

/// What a speculating TfCommitRound may ask its dispatcher about the rest of
/// the in-flight window. Calls happen on the round coordinator's serialized
/// context (vote/response handlers and outcome notifications).
class SpecContext {
 public:
  virtual ~SpecContext() = default;

  struct ChainPos {
    std::uint64_t height{0};
    crypto::Digest prev_hash;
  };

  /// Projected chain position for this round's opening: the decided head
  /// plus one height per undecided round below it. prev_hash is the zero
  /// digest while any lower round is still deciding (unknowable until
  /// then); cohorts defer the chain check to apply time.
  virtual ChainPos opening_base(std::uint64_t epoch) = 0;

  /// True once every round below `epoch` has an outcome — the point where
  /// this round's speculative votes become checkable and its true chain
  /// position is pinned.
  virtual bool base_resolved(std::uint64_t epoch) const = 0;

  /// Whether round `epoch`'s block changed shard state (committed with a
  /// valid co-sign); nullopt while it is still deciding.
  virtual std::optional<bool> applied(std::uint64_t epoch) const = 0;

  /// Authoritative Merkle root of `server`'s shard after the decided
  /// prefix, or nullptr when no decided block has pinned it yet.
  virtual const crypto::Digest* shard_root(std::uint32_t server) const = 0;

  /// The decided chain head — the true (height, prev_hash) a resolved
  /// round's completed block must carry.
  virtual ChainPos decided_base() const = 0;
};

/// Who runs a round. The global protocol (§4.1) runs every server with S0
/// coordinating and chains each block to the coordinator's log head; scaled
/// TFCommit (§4.6) runs only the servers a batch touches, with the lowest
/// one coordinating, and leaves the chain position to OrdServ.
struct RoundPlacement {
  std::vector<ServerId> members;  ///< cohort slot i is members[i], ascending
  ServerId coordinator{0};        ///< one of the members
  /// Group commit (TFCommit only): the partial block sits at height 0 with a
  /// zero prev-hash (the co-sign covers the unchained bytes), nothing is
  /// rebased, and no tf_decision is broadcast — the outcome goes to
  /// RoundObserver::on_outcome alone, and the observer sequences it.
  bool unchained{false};

  /// All servers, coordinated by the cluster's coordinator (S0).
  static RoundPlacement global(const Cluster& cluster);
};

/// One value per slot that a round collects once, e.g. one vote per cohort:
/// the first fill of a slot wins and later copies are dropped.
template <typename T>
class FillOnceSlots {
 public:
  explicit FillOnceSlots(std::size_t n) : values_(n), in_(n, 0) {}

  /// Marks slot i filled and returns its value to write, or nullptr when it
  /// was filled already (a payload that then fails to parse leaves T{}).
  T* claim(std::size_t i) {
    if (in_[i]) return nullptr;
    in_[i] = 1;
    ++filled_;
    return &values_[i];
  }
  void fill(std::size_t i, T value) {
    if (T* slot = claim(i)) *slot = std::move(value);
  }
  void clear() { *this = FillOnceSlots(values_.size()); }

  bool has(std::size_t i) const { return in_[i] != 0; }
  std::size_t filled() const { return filled_; }
  bool full() const { return filled_ == values_.size(); }
  const std::vector<T>& values() const { return values_; }

 private:
  std::vector<T> values_;
  std::vector<unsigned char> in_;
  std::size_t filled_{0};
};

/// Shared wiring of the coordinator/cohort reactors.
class RoundReactor {
 public:
  RoundReactor(Cluster& cluster, RoundPlacement placement, std::uint64_t epoch,
               RoundObserver* observer);
  virtual ~RoundReactor() = default;

  std::uint64_t epoch() const { return epoch_; }
  NodeId coordinator_node() const { return coord_node_; }
  const RoundPlacement& placement() const { return placement_; }

  /// Emits the round's opening broadcast. Must run in the coordinator's
  /// serialized context (it reads the coordinator's log head).
  virtual void start(Outbox& out) = 0;

  /// Handles one delivered envelope. `authentic` is the transport.open()
  /// verdict, computed by the dispatcher — handlers must not re-open.
  virtual void on_deliver(NodeId src, NodeId dst, const Envelope& env, bool authentic,
                          Outbox& out) = 0;

  /// Re-synchronizes a just-restored server with this round (simulated
  /// schedules; the dispatcher already restored the server from its round
  /// log and cleared its dedup state). Implementations re-send, over the
  /// ideal replay stream and in causal order, exactly the messages the
  /// server needs: the opening (to rebuild volatile cohort state — a vote
  /// leaves vote-once per (epoch, base), so a recomputed vote never differs
  /// from a logged one), the challenge if one is pending, or the decision if
  /// the round already decided. A recovered *coordinator* instead restarts
  /// the round's aggregation from the top; surviving cohorts answer every
  /// re-ask with their recorded bytes, so the restarted round finishes
  /// bit-identical.
  virtual void on_recover(std::uint32_t server, Outbox& out) = 0;

  /// Coordinator-death termination (TFCommit only): the lowest-id surviving
  /// cohort, as the CosiLeader of the survivors, drives the in-flight round
  /// to a co-signed abort instead of blocking until the coordinator returns.
  /// Default: no termination — the 2PC baseline blocks, which is the paper's
  /// headline contrast.
  virtual void begin_termination(Outbox& /*out*/) {}

  /// Every round below this one has decided (speculative pipelining): the
  /// round's true chain position is pinned and buffered speculative votes
  /// can be validated. Invoked on the coordinator's serialized context.
  virtual void on_base_resolved(Outbox& /*out*/) {}

  /// Folds the per-slot timing state into metrics_ once the round is over
  /// (no handler may still be running). Subclasses add outcome fields.
  virtual void finalize();

  RoundMetrics& metrics() { return metrics_; }

  /// One-line phase counts (opened / votes / responses / outcome), for
  /// stall reports. Read only at quiescence.
  virtual std::string progress() const { return {}; }

 protected:
  Server& coord_server() const { return cluster_->server(placement_.coordinator); }
  Envelope seal_framed(const Server& sender, const char* type, BytesView payload) const;
  /// Seal-once / count-every-copy broadcast to `to` (empty: the round's
  /// members).
  void broadcast(Outbox& out, const Envelope& env, std::span<const ServerId> to = {});

  /// Records the first authentic vote bytes per (sender, speculated base)
  /// and flags any later authentic copy that differs — the cross-restart
  /// no-equivocation oracle (RoundMetrics::vote_equivocators). A re-vote on
  /// a *different* base is a distinct logical vote, never an equivocation.
  void note_vote_bytes(std::uint32_t src, std::uint64_t base, BytesView payload);

  /// Decision bookkeeping shared by every decision-shaped handler: durably
  /// records applied blocks and advances the pipeline watermark exactly
  /// when the server processed this round's decision (applied or refused —
  /// not stale/future recovery stragglers). `on_resolved` (when non-null)
  /// runs between the durable record and the watermark callback — the slot
  /// where speculative re-votes must leave the node, after this decision's
  /// effects but before the pipeline can push the next decision through.
  void decision_processed(Server& server, const char* msg_type,
                          const ledger::Block& block, Server::ApplyResult result,
                          const std::function<void()>& on_resolved = {});

  Cluster* cluster_;
  Transport* transport_;
  std::uint32_t n_;
  RoundPlacement placement_;
  NodeId coord_node_;
  std::uint64_t epoch_;
  RoundObserver* observer_;

  RoundMetrics metrics_;
  double coord_us_{0};                 ///< coordinator-side handler time (wall)
  std::vector<double> cohort_us_;      ///< per-cohort handler CPU time
  std::vector<double> cohort_mht_us_;  ///< per-cohort max single Merkle stint
  /// First authentic vote bytes per (sender, speculated base).
  std::vector<std::map<std::uint64_t, Bytes>> vote_bytes_seen_;
};

/// One TFCommit round (Figure 7): get_vote -> votes -> challenge ->
/// responses -> decision -> log append + datastore update.
///
/// Crash-tolerant: every vote leaves through Server::vote_once, the
/// decision is re-derivable bit-for-bit from re-collected votes
/// (deterministic CoSi nonces), and a coordinator that stays dead past the
/// termination timeout is routed around by the surviving cohorts
/// (begin_termination) — they finish the round as a co-signed abort among
/// themselves, with a backup leading through the same commit::CosiLeader as
/// the coordinator, which the 2PC baseline cannot do. Termination is a
/// global placement feature; a group round waits for its coordinator to
/// recover.
class TfCommitRound final : public RoundReactor {
 public:
  /// `spec` non-null runs the round speculatively (see ClusterConfig::
  /// speculate): the opening goes out on a projected chain position, votes
  /// carry base tags the coordinator validates against `spec`'s decided
  /// chain, and mis-speculated votes are discarded to await the cohort's
  /// deterministic re-vote. Null reproduces the gated protocol exactly.
  TfCommitRound(Cluster& cluster, RoundPlacement placement, std::uint64_t epoch,
                std::vector<commit::SignedEndTxn> batch, RoundObserver* observer,
                SpecContext* spec = nullptr);

  /// Round `epoch` is over at `server` (`applied`: its block changed the
  /// shard): pops the cohort's speculation stack and sends each contradicted
  /// later vote, recomputed and logged as a new (epoch, base), to
  /// `coordinator_of(round)` (nullopt drops it).
  static void resolve_speculation(
      Transport& transport, Server& server, std::uint64_t epoch, bool applied,
      const std::function<std::optional<NodeId>(std::uint64_t)>& coordinator_of,
      Outbox& out);

  void start(Outbox& out) override;
  void on_deliver(NodeId src, NodeId dst, const Envelope& env, bool authentic,
                  Outbox& out) override;
  void on_recover(std::uint32_t server, Outbox& out) override;
  void begin_termination(Outbox& out) override;
  void on_base_resolved(Outbox& out) override;
  void finalize() override;

  /// Why the round was refused without a co-sign attempt (empty otherwise).
  const std::string& fault() const { return fault_; }
  std::string progress() const override;

 private:
  /// Rebuilds the coordinator's aggregation state from scratch and re-runs
  /// the round (recovered coordinator; cohorts answer from their logs).
  void restart(Outbox& out);
  /// Cohort slot of `server`, or nullopt when it is not a member.
  std::optional<std::size_t> slot_of(std::uint32_t server) const;
  void handle_get_vote(NodeId dst, BytesView body, bool authentic, Outbox& out);
  void ingest_vote(std::size_t slot, commit::VoteMsg vote, Outbox& out);
  /// Validates buffered speculative votes against the decided chain, fills
  /// slots with the survivors, and fires the challenge once all are in.
  void try_accept_votes(Outbox& out);
  /// All of `vote`'s base assumptions hold against the decided chain.
  bool spec_base_valid(const commit::VoteMsg& vote) const;
  void maybe_fire_challenge(Outbox& out);
  /// Records the outcome, broadcasts it (chained placements), and reports
  /// it to the observer.
  void decide(commit::TfCommitOutcome outcome, Outbox& out);
  void send_term_vote(Server& server, Outbox& out);

  std::vector<commit::SignedEndTxn> batch_;
  std::vector<commit::SignedEndTxn> pristine_batch_;  ///< for coordinator restart
  commit::TfCommitCoordinator coordinator_;
  SpecContext* spec_{nullptr};
  std::string fault_;
  /// This round's block height, set by start() (projected for speculative
  /// rounds until the base resolves). Not the CoSi round id (that is
  /// epoch_ — heights recur when aborted rounds retry); used for the
  /// "already decided this height" guard on termination co-signing.
  std::uint64_t height_{0};
  /// The opening's partial block, cached so a coordinator restart
  /// re-broadcasts the identical opening (a speculative projection must not
  /// be recomputed against a chain that has moved on since).
  std::optional<commit::Block> first_partial_;

  // Aggregation state, indexed by cohort slot.
  FillOnceSlots<commit::VoteMsg> votes_;
  /// Speculative rounds: votes parked per (slot, base) until the base
  /// resolves and their assumptions can be checked.
  std::vector<std::map<std::uint64_t, commit::VoteMsg>> buffered_votes_;
  std::vector<commit::ChallengeMsg> challenges_;
  FillOnceSlots<commit::ResponseMsg> responses_;
  std::optional<commit::TfCommitOutcome> outcome_;

  // Stored wire copies for the recovery replay stream.
  Envelope opening_env_;
  bool opening_sent_{false};
  std::vector<Envelope> challenge_envs_;
  Envelope decision_env_;

  // Cooperative termination state (global placement only). The backup leads
  // a fresh CoSi exchange through term_leader_, whose signers are the live
  // set frozen at term start; the backup-side slots follow that signer
  // order. The deferred-reply flags are per-destination cohort state.
  struct TermVote {
    commit::VoteMsg vote;
    crypto::AffinePoint commitment;  ///< V_i in the termination nonce domain
  };
  std::optional<commit::CosiLeader> term_leader_;  ///< set once termination starts
  std::uint32_t term_backup_{0};
  FillOnceSlots<TermVote> term_votes_;
  std::vector<unsigned char> term_waiting_;  ///< cohort owes a term_vote
  std::optional<ledger::Block> term_block_;  ///< the abort block, once challenged
  FillOnceSlots<crypto::U256> term_shares_;
  bool term_decided_{false};
  Envelope term_decision_env_;
};

/// One 2PC round (baseline, §6.1): prepare -> votes -> decision -> apply.
/// Crash-tolerant for cohort failures (vote-once + replay stream), but a
/// dead coordinator blocks the round until it recovers — 2PC has no
/// cohort-driven termination, which is exactly the paper's argument.
class TwoPhaseRound final : public RoundReactor {
 public:
  TwoPhaseRound(Cluster& cluster, std::uint64_t epoch,
                std::vector<commit::SignedEndTxn> batch, RoundObserver* observer);

  void start(Outbox& out) override;
  void on_deliver(NodeId src, NodeId dst, const Envelope& env, bool authentic,
                  Outbox& out) override;
  void on_recover(std::uint32_t server, Outbox& out) override;
  void finalize() override;
  std::string progress() const override;

 private:
  void restart(Outbox& out);

  std::vector<commit::SignedEndTxn> batch_;
  std::vector<commit::SignedEndTxn> pristine_batch_;
  commit::TwoPhaseCommitCoordinator coordinator_;

  FillOnceSlots<commit::PrepareVoteMsg> votes_;
  std::optional<commit::TwoPhaseCommitOutcome> outcome_;

  Envelope opening_env_;
  bool opening_sent_{false};
  Envelope decision_env_;
};

/// The checkpoint CoSi round (§3.3): propose -> commit -> challenge ->
/// response. Every server commits only to the checkpoint its own log yields
/// and answers through its CosiWitness (the challenge carries V next to c);
/// one refusal sinks the checkpoint. The coordinator leads through a
/// CosiLeader, whose seal verdict is the round's result.
class CheckpointRound final : public RoundReactor {
 public:
  CheckpointRound(Cluster& cluster, std::uint64_t epoch);

  void start(Outbox& out) override;
  void on_deliver(NodeId src, NodeId dst, const Envelope& env, bool authentic,
                  Outbox& out) override;
  void on_recover(std::uint32_t server, Outbox& out) override;

  /// The formed-and-validated checkpoint, or nullopt (a server's log
  /// disagreed, or the aggregate co-sign failed validation).
  const std::optional<ledger::Checkpoint>& result() const { return result_; }

 private:
  void restart(Outbox& out);

  ledger::Checkpoint cp_;
  commit::CosiLeader leader_;
  /// Per server: its commitment, or nullopt when it refused the proposal.
  FillOnceSlots<std::optional<crypto::AffinePoint>> commits_;
  FillOnceSlots<crypto::U256> shares_;  ///< an unauthenticated share stays zero
  std::optional<ledger::Checkpoint> result_;  ///< set when the seal verified

  Envelope propose_env_;
  bool propose_sent_{false};
  Envelope challenge_env_;
  bool challenge_sent_{false};
};

}  // namespace fides::engine

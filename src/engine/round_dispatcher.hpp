// The round dispatcher: the one engine core that drives round reactors
// (engine/reactor.hpp) over any Scheduler. Global rounds (engine/pipeline.cpp:
// every server, one coordinator, one hash chain) and group rounds
// (ordserv/group_engine.cpp: the servers a batch touches, sequenced by
// OrdServ) are two placement policies on top of it. The core owns everything
// they share:
//
//   * Routing + dedup — every engine frame carries its round's epoch; a
//     delivery reaches its round at most once per (sender, receiver, type,
//     epoch). Recovery replays are recorded but never dropped.
//   * The opening gate — each server processes openings in touch order (the
//     rounds touching it, in round order). An opening is held until every
//     earlier round touching that server passed: its end processed there
//     (lock-step) or, speculating, its opening. A global round touches every
//     server, so there touch order is round order and the gate is the
//     classic "apply k-1 before voting on k" watermark.
//   * Depth-window admission — a round launches once each member has fewer
//     than `depth` launched rounds unresolved there and every earlier round
//     touching a member launched. Starts run on the round coordinator's
//     serialized context. With every round touching every server this is
//     "k - completed < depth".
//   * Completion — a round is complete once `target` servers processed its
//     end. A quiescent scheduler with an incomplete round is a stall; the
//     error names the round, its members, and its reactor's phase counts.
//   * The decided prefix behind SpecContext — per server, the leading decided
//     rounds touching it, whether each applied, and the shard roots they pin.
//   * Crash/recover — a crash wipes the node's held openings; recovery
//     restores the server from its durable log, lets the placement mark what
//     the log proves processed, re-gates the server, and catches up the
//     in-flight rounds it has not finished.
//
// Shared code branches only on round data (the placement, the protocol,
// speculation); ordering and anything placement-specific sit behind the
// virtual hooks below.
//
// Locking: one mutex guards all dispatcher state, the placement's included.
// Reactors always run outside it, because their handlers call back into the
// RoundObserver/SpecContext side, which locks.
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "engine/dispatch_util.hpp"
#include "engine/reactor.hpp"

namespace fides::engine {

class RoundDispatcher : public Dispatcher, public RoundObserver, public SpecContext {
 public:
  void dispatch(NodeId src, NodeId dst, const Envelope& env, Outbox& out) override {
    dispatch_impl(src, dst, env, out, /*replay=*/false, std::nullopt);
  }
  void dispatch_replay(NodeId src, NodeId dst, const Envelope& env, Outbox& out) override {
    dispatch_impl(src, dst, env, out, /*replay=*/true, std::nullopt);
  }
  void dispatch_batch(std::span<const Delivery> batch, NodeId dst, Outbox& out) override;
  void on_control(const ControlEvent& ev, Outbox& out) override;

  /// Placements whose rounds broadcast no decision count ends themselves.
  void on_decision_processed(std::uint64_t /*epoch*/, std::uint32_t /*server*/) override {}
  void on_outcome(std::uint64_t epoch, const ledger::Block& block, bool appended,
                  Outbox& out) override EXCLUDES(mutex_);

  // Unchained rounds never ask for a chain position; global rounds override.
  ChainPos opening_base(std::uint64_t /*epoch*/) override { return {}; }
  ChainPos decided_base() const override { return {}; }
  bool base_resolved(std::uint64_t epoch) const override EXCLUDES(mutex_);
  std::optional<bool> applied(std::uint64_t epoch) const override EXCLUDES(mutex_);
  const crypto::Digest* shard_root(std::uint32_t server) const override EXCLUDES(mutex_);

  /// Starts the clock and launches whatever fits. Drivers whose own
  /// dispatcher fronts this one (open loop) or that never observe global
  /// completion (a socket cohort) call it and run the scheduler themselves.
  void begin() EXCLUDES(mutex_);
  /// begin() plus a completion predicate, then runs the scheduler.
  void run() EXCLUDES(mutex_);
  /// Round k's metrics (at quiescence): the reactor's totals plus the
  /// measured wall time. A round no server ends is measured until now.
  RoundMetrics round_metrics(std::size_t k) EXCLUDES(mutex_);

  /// The bare core runs rounds no server ends (the checkpoint round);
  /// placements derive and override the hooks below.
  RoundDispatcher(Cluster& cluster, Scheduler& sched, std::size_t depth, bool speculate);

  /// Appends the next round (before begin()). A null reactor is a round
  /// refused at admission: no epoch, no traffic, complete from the start.
  void add_round(std::unique_ptr<RoundReactor> reactor) EXCLUDES(mutex_);

 protected:
  static constexpr std::size_t kNotMember = static_cast<std::size_t>(-1);

  struct Round {
    std::vector<std::size_t> pos;  ///< per server: touch position, or kNotMember
    bool launched{false};   ///< admitted; holds a window slot at each member
    bool started{false};    ///< launched here, or its traffic proves it started
    bool decided{false};    ///< outcome known (or refused at admission)
    bool applied{false};    ///< outcome committed with a valid co-sign
    bool refused{false};    ///< ended without an outcome; the placement replays its end
    bool completed{false};
    std::vector<unsigned char> done_at;    ///< per server: round end processed
    std::vector<unsigned char> opened_at;  ///< per server: opening processed (spec)
    std::size_t done_count{0};
    std::size_t target{0};
    std::vector<ledger::ShardRoot> roots;  ///< an applied outcome's Σroots (spec)
    Clock::time_point wall_start, wall_end;
  };
  /// A gated delivery, released later on its destination's context.
  struct Held {
    NodeId src, dst;
    Envelope env;
    std::size_t round{0};
  };

  // --- Placement policy -----------------------------------------------------
  /// Extra admission rule; every member's window already fits round k.
  virtual bool may_launch_locked(std::size_t /*k*/) const REQUIRES(mutex_) { return true; }
  /// A delivery passed dedup and the opening gate; false means the placement
  /// held or dropped it.
  virtual bool accept_locked(std::size_t /*k*/, NodeId /*src*/, NodeId /*dst*/,
                             const Envelope& /*env*/) REQUIRES(mutex_) {
    return true;
  }
  /// Handles a round-k delivery the placement owns instead of the reactor;
  /// false passes it to the reactor.
  virtual bool deliver_own(std::size_t /*k*/, NodeId /*dst*/, const Envelope& /*env*/,
                           bool /*authentic*/, Outbox& /*out*/) EXCLUDES(mutex_) {
    return false;
  }
  /// Round k's outcome exists, before the decided prefix advances past it.
  virtual void on_decided_locked(std::size_t /*k*/, const ledger::Block& /*block*/,
                                 bool /*appended*/, Outbox& /*out*/) REQUIRES(mutex_) {}
  /// After an outcome's bookkeeping and the rounds it resolved resumed.
  virtual void after_outcome(Outbox& /*out*/) EXCLUDES(mutex_) {}
  /// Cohorts are terminating rounds: a newly resolved round joins them.
  virtual bool terminating_locked() const REQUIRES(mutex_) { return false; }
  /// Whether a crash of the cluster coordinator arms the termination probe.
  virtual bool terminates() const { return true; }
  virtual void on_crash_locked(std::uint32_t /*server*/) REQUIRES(mutex_) {}
  /// Server restored: mark what its durable log proves it processed
  /// (mark_done_locked without admission) and replay the placement's stream.
  virtual void on_recover_locked(std::uint32_t /*server*/, Outbox& /*out*/) REQUIRES(mutex_) {}
  /// Termination probes, timers and remote apply reports.
  virtual void on_other_control(const ControlEvent& /*ev*/, Outbox& /*out*/) {}

  // --- Shared mechanisms ------------------------------------------------------
  /// Round k is over at server s: frees its window slot, passes the gate, and
  /// counts toward completion. True on the first call per (round, server).
  bool mark_done_locked(std::size_t k, std::uint32_t s, bool admit = true) REQUIRES(mutex_);
  void retarget_locked(std::size_t k, std::size_t target) REQUIRES(mutex_);
  /// Queues every round that now fits; drain_starts() posts them.
  void admit_locked() REQUIRES(mutex_);
  void drain_starts() EXCLUDES(mutex_);
  /// Delivers, one at a time, every held opening s's gate now admits.
  void flush_held(std::uint32_t s, Outbox& out) EXCLUDES(mutex_);
  void deliver(std::size_t k, NodeId src, NodeId dst, const Envelope& env, Outbox& out,
               std::optional<bool> verdict = std::nullopt) EXCLUDES(mutex_);
  /// Throws the stall error for the first incomplete round.
  void require_complete_locked() const REQUIRES(mutex_);

  Cluster* cluster_;         // confined(ctor): immutable after construction
  Scheduler* sched_;         // confined(ctor): immutable after construction
  std::uint32_t n_;          // confined(ctor): immutable after construction
  std::size_t depth_;        // confined(ctor): immutable after construction
  bool speculate_;           // confined(ctor): immutable after construction
  /// One reactor per round (null: refused at admission). Fixed after
  /// construction; reactors synchronize by their own per-node contract.
  std::vector<std::unique_ptr<RoundReactor>> reactors_;            // confined(ctor)
  std::unordered_map<std::uint64_t, std::size_t> epoch_to_round_;  // confined(ctor)
  Clock::time_point t0_;  // confined(driver): begin()/collect() only, outside run()

  mutable common::Mutex mutex_;
  std::vector<Round> rounds_ GUARDED_BY(mutex_);
  std::size_t completed_ GUARDED_BY(mutex_){0};
  /// Per server: the decided prefix's last co-signed root of its shard.
  std::vector<std::optional<crypto::Digest>> shard_roots_ GUARDED_BY(mutex_);

 private:
  void dispatch_impl(NodeId src, NodeId dst, const Envelope& env, Outbox& out, bool replay,
                     std::optional<bool> verdict) EXCLUDES(mutex_);
  /// Dedup and the opening gate: false when the delivery is dropped or held.
  bool route_locked(NodeId src, NodeId dst, const Envelope& env, bool replay,
                    std::size_t& k) REQUIRES(mutex_);
  void note_opened_locked(std::size_t k, std::uint32_t s) REQUIRES(mutex_);
  void advance_gate(std::uint32_t s) REQUIRES(mutex_);
  void advance_decided(std::uint32_t s) REQUIRES(mutex_);
  bool base_resolved_locked(std::size_t k) const REQUIRES(mutex_);
  /// Completes `r` once its end is processed at `target` servers.
  void complete_locked(Round& r) REQUIRES(mutex_);
  void handle_crash(NodeId node) EXCLUDES(mutex_);
  void handle_recover(NodeId node, Outbox& out) EXCLUDES(mutex_);

  Dedup dedup_ GUARDED_BY(mutex_);
  /// Per server: the rounds touching it, in round order.
  std::vector<std::vector<std::size_t>> touch_rounds_ GUARDED_BY(mutex_);
  /// Per server: leading count of touch rounds past the opening gate.
  std::vector<std::size_t> gate_upto_ GUARDED_BY(mutex_);
  /// Per server: leading count of launched touch rounds. Admission follows
  /// touch order: a later round claiming a window slot before an earlier
  /// toucher launched would deadlock the window against the opening gate.
  std::vector<std::size_t> started_upto_ GUARDED_BY(mutex_);
  /// Per server: launched touch rounds not yet over there (the depth window).
  std::vector<std::size_t> unresolved_ GUARDED_BY(mutex_);
  /// Per server: leading count of decided touch rounds (speculation).
  std::vector<std::size_t> decided_upto_ GUARDED_BY(mutex_);
  std::vector<std::deque<Held>> held_ GUARDED_BY(mutex_);  ///< gated openings
  /// Rounds admitted under the lock, posted by drain_starts() after it is
  /// released (a post may execute inline and re-enter the dispatcher).
  std::vector<std::size_t> pending_starts_ GUARDED_BY(mutex_);
  std::size_t first_unlaunched_ GUARDED_BY(mutex_){0};
};

}  // namespace fides::engine

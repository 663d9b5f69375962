#include "engine/pipeline.hpp"

#include <algorithm>

#include "engine/round_dispatcher.hpp"
#include "sim/simnet.hpp"

namespace fides::engine {

namespace {

/// Global placement: every round runs on every server with the cluster's
/// coordinator and extends one hash chain. On top of the shared core it
/// owns the chained decided head, the lock-step coordinator rule, the
/// in-order decision gate under speculation, cohort termination, the
/// socket plane's kPeerApplied and rejoin heights, open-loop admission, and
/// 2PC.
class CommitPipeline final : public RoundDispatcher {
 public:
  /// `external_admission`: rounds additionally wait for admit_batch(k) —
  /// the open-loop driver's "batch k fully arrived at the coordinator"
  /// signal. Off (the default) reproduces the classic pipeline: every batch
  /// is ready from the start.
  CommitPipeline(Cluster& cluster, Protocol protocol,
                 std::vector<std::vector<commit::SignedEndTxn>> batches,
                 Scheduler& sched, bool external_admission = false)
      : RoundDispatcher(cluster, sched,
                        std::max<std::uint32_t>(1, cluster.config().pipeline_depth),
                        cluster.config().speculate && protocol == Protocol::kTfCommit),
        coord_(cluster.coordinator_id().value),
        base_height_(cluster.server(cluster.coordinator_id()).log().size()),
        held_dec_(n_),
        dec_height_(base_height_),
        dec_head_(cluster.server(cluster.coordinator_id()).log().head_hash()),
        batch_ready_(batches.size(), external_admission ? 0 : 1) {
    for (auto& batch : batches) {
      const std::uint64_t epoch = cluster.epochs().reserve();
      if (protocol == Protocol::kTfCommit) {
        add_round(std::make_unique<TfCommitRound>(cluster, RoundPlacement::global(cluster),
                                                  epoch, std::move(batch), this,
                                                  speculate_ ? this : nullptr));
      } else {
        add_round(std::make_unique<TwoPhaseRound>(cluster, epoch, std::move(batch), this));
      }
    }
    common::MutexLock lock(mutex_);
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (cluster.is_crashed(ServerId{i})) continue;
      // A server whose durable log is already past this pipeline's base (a
      // restarted serverd rejoining a socket run mid-stream) processed every
      // decision up to its log head, so the coordinator's replay stream —
      // which resumes there — is not gated behind rounds it never sees
      // again. Single-process runs start every live server at the base.
      mark_durable_locked(i);
      // Speculating, authoritative shard roots start from the live servers'
      // trees; committed blocks' Σroots advance them.
      if (speculate_) shard_roots_[i] = cluster.server(ServerId{i}).shard().merkle_root();
    }
  }

  /// Open-loop admission signal: batch k is fully assembled at the
  /// coordinator. Idempotent.
  void admit_batch(std::size_t k) EXCLUDES(mutex_) {
    {
      common::MutexLock lock(mutex_);
      if (k >= batch_ready_.size() || batch_ready_[k] != 0) return;
      batch_ready_[k] = 1;
      admit_locked();
    }
    drain_starts();
  }

  /// Fired (outside the lock) every time `server` finishes processing round
  /// k's decision — the open-loop session's cue to send client responses
  /// when `server` is the coordinator.
  void set_decision_hook(std::function<void(std::size_t, std::uint32_t)> hook) {
    decision_hook_ = std::move(hook);
  }

  PipelineResult collect() EXCLUDES(mutex_) {
    {
      common::MutexLock lock(mutex_);
      require_complete_locked();
    }
    PipelineResult result;
    for (std::size_t k = 0; k < reactors_.size(); ++k) {
      result.rounds.push_back(round_metrics(k));
    }
    result.wall_us = since_us(t0_);
    return result;
  }

  // --- RoundObserver ----------------------------------------------------------

  void on_decision_processed(std::uint64_t epoch, std::uint32_t server) override
      EXCLUDES(mutex_) {
    const auto it = epoch_to_round_.find(epoch);
    if (it == epoch_to_round_.end() || server >= n_) return;
    const std::size_t k = it->second;
    std::vector<Held> flush;
    bool fresh = false;
    {
      common::MutexLock lock(mutex_);
      fresh = mark_done_locked(k, server);
      // Every held decision whose predecessor is now processed here, in
      // arrival order (a reordering network can queue k+2 ahead of k+1).
      auto& hq = held_dec_[server];
      const auto ready = std::stable_partition(hq.begin(), hq.end(), [&](const Held& h) {
        return rounds_[h.round - 1].done_at[server] == 0;
      });
      flush.assign(std::make_move_iterator(ready), std::make_move_iterator(hq.end()));
      hq.erase(ready, hq.end());
    }
    drain_starts();
    // Flushed messages run here, on `server`'s serialized context (this
    // callback sits inside its decision handler), keeping decisions — and
    // then the openings they admit — in round order.
    for (Held& h : flush) deliver(h.round, h.src, h.dst, h.env, sched_->outbox());
    flush_held(server, sched_->outbox());
    if (fresh) {
      // First time this (round, server) pair completed: tell the substrate
      // (the socket scheduler forwards it to the coordinator process as a
      // kPeerApplied frame) and the open-loop session.
      sched_->notify_applied(server, epoch);
      if (decision_hook_) decision_hook_(k, server);
    }
  }

  // --- SpecContext ------------------------------------------------------------

  ChainPos opening_base(std::uint64_t epoch) override EXCLUDES(mutex_) {
    const std::size_t k = epoch_to_round_.at(epoch);
    common::MutexLock lock(mutex_);
    const std::size_t undecided = static_cast<std::size_t>(std::count_if(
        rounds_.begin(), rounds_.begin() + static_cast<std::ptrdiff_t>(k),
        [](const Round& r) { return !r.decided; }));
    // Projection: every undecided round below appends one block. A rejected
    // block (invalid co-sign) makes later projected heights overshoot —
    // harmless, cohorts treat speculative heights as advisory and the
    // challenge carries the real position.
    return ChainPos{dec_height_ + undecided,
                    undecided == 0 ? dec_head_ : crypto::Digest::zero()};
  }

  ChainPos decided_base() const override EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    return ChainPos{dec_height_, dec_head_};
  }

 private:
  // --- Placement policy -------------------------------------------------------

  bool may_launch_locked(std::size_t k) const override REQUIRES(mutex_) {
    // Open-loop: the batch must have fully arrived at the coordinator.
    // Lock-step: the coordinator's log head must already name round k's
    // prev-hash; a speculative opening projects it instead.
    return batch_ready_[k] != 0 &&
           (speculate_ || k == 0 || rounds_[k - 1].done_at[coord_] != 0);
  }

  /// Speculating, decisions must still apply strictly in round order at each
  /// server — with the opening gate relaxed, a later round's decision can
  /// otherwise overtake an earlier one on a reordering network and be lost
  /// as kFuture.
  bool accept_locked(std::size_t k, NodeId src, NodeId dst, const Envelope& env) override
      REQUIRES(mutex_) {
    const bool decision = env.type == "tf_decision" || env.type == "tf_term_decision";
    if (!speculate_ || !decision || k == 0 || rounds_[k - 1].done_at[dst.id] != 0) return true;
    held_dec_[dst.id].push_back(Held{src, dst, env, k});
    return false;
  }

  void on_decided_locked(std::size_t /*k*/, const ledger::Block& block, bool appended,
                         Outbox& /*out*/) override REQUIRES(mutex_) {
    if (speculate_ && appended) {
      dec_height_ = block.height + 1;
      dec_head_ = block.digest();
    }
  }

  bool terminating_locked() const override REQUIRES(mutex_) {
    return term_mode_ && cluster_->is_crashed(ServerId{coord_});
  }

  void on_crash_locked(std::uint32_t s) override REQUIRES(mutex_) { held_dec_[s].clear(); }

  void on_recover_locked(std::uint32_t s, Outbox& /*out*/) override REQUIRES(mutex_) {
    held_dec_[s].clear();
    // Reconcile completions the crash swallowed: every block the server
    // re-ingested from its durable log is a decision it processed, though
    // over sockets its kPeerApplied frame may have died with the process.
    // Single-process substrates fire the observer in the same call stack as
    // the append, so this finds nothing new there.
    mark_durable_locked(s);
  }

  void mark_durable_locked(std::uint32_t s) REQUIRES(mutex_) {
    const std::size_t durable = cluster_->server(ServerId{s}).log().size();
    for (std::size_t k = 0; k < rounds_.size() && base_height_ + k < durable; ++k) {
      mark_done_locked(k, s, /*admit=*/false);
    }
  }

  void on_other_control(const ControlEvent& ev, Outbox& out) override EXCLUDES(mutex_) {
    // A remote process reported that the server it hosts processed a round's
    // decision. Control-plane input from the wire is untrusted;
    // on_decision_processed validates both coordinates.
    if (ev.kind == ControlEvent::Kind::kPeerApplied && ev.node.kind == NodeId::Kind::kServer) {
      on_decision_processed(ev.tag, ev.node.id);
    }
    // The probe raced recovery; only a still-dead coordinator triggers
    // cohort-driven termination.
    if (ev.kind != ControlEvent::Kind::kCoordinatorTimeout ||
        !cluster_->is_crashed(ServerId{ev.node.id})) {
      return;
    }
    std::vector<RoundReactor*> term;
    {
      common::MutexLock lock(mutex_);
      // Speculative windows can hold several undecided rounds; their
      // co-signed aborts must chain, so terminations run one at a time in
      // round order (on_outcome starts the next).
      if (speculate_) term_mode_ = true;
      for (std::size_t k = 0; k < rounds_.size(); ++k) {
        const Round& r = rounds_[k];
        if (!r.started || r.completed || (speculate_ && r.decided)) continue;
        term.push_back(reactors_[k].get());
        if (speculate_) break;
      }
    }
    for (RoundReactor* r : term) r->begin_termination(out);
  }

  std::uint32_t coord_;      // confined(ctor): immutable after construction
  std::size_t base_height_;  ///< height at pipeline start -- confined(ctor)
  std::vector<std::deque<Held>> held_dec_
      GUARDED_BY(mutex_);  ///< per server: gated decisions (spec)
  // Decided chain head (speculation): what every later opening projects from.
  std::uint64_t dec_height_ GUARDED_BY(mutex_){0};
  crypto::Digest dec_head_ GUARDED_BY(mutex_);
  bool term_mode_ GUARDED_BY(mutex_){false};  ///< terminations in progress
  std::vector<unsigned char> batch_ready_
      GUARDED_BY(mutex_);  ///< open-loop admission flags
  // confined(setup): installed before the scheduler runs, never reassigned
  // after; handlers only invoke the stable target.
  std::function<void(std::size_t, std::uint32_t)> decision_hook_;
};

/// The open-loop client layer: a dispatcher that owns the client-visible
/// traffic — "client_submit"/"client_resp" envelopes and the kTimer control
/// events driving submit/retry clocks — and delegates everything else (all
/// engine-framed round traffic) to the commit pipeline. Runs only on the
/// single-threaded SimNet event loop, so its state needs no lock.
///
/// Per-transaction choreography: the submit timer fires at the arrival
/// time; the client seals its request once and sends it to its affinity
/// server (client % num_servers), which relays it to the coordinator over a
/// second simulated hop. A client that has not seen its response after
/// ClientModel::retry_timeout_us re-sends the byte-identical envelope (up
/// to max_retries); the coordinator dedups by transaction index and, once
/// the round decided, replays its cached signed response. Latency is the
/// virtual time from the submit timer to the response delivery — queueing
/// at the coordinator included, which is the number closed-loop runs can
/// never produce.
class ClientSession final : public Dispatcher {
 public:
  ClientSession(Cluster& cluster, CommitPipeline& pipeline, sim::SimNet& net,
                std::vector<OpenLoopTxn> txns, sim::ClientModel model,
                std::size_t num_rounds)
      : cluster_(&cluster),
        pipeline_(&pipeline),
        net_(&net),
        model_(model),
        coord_(NodeId::server(cluster.coordinator_id())),
        pending_(num_rounds, 0),
        round_responded_(num_rounds, 0) {
    txns_.reserve(txns.size());
    for (const OpenLoopTxn& t : txns) {
      TxnState ts;
      ts.info = t;
      ts.affinity = ServerId{t.client % cluster.num_servers()};
      ++pending_[t.round];
      txns_.push_back(std::move(ts));
    }
    latency_us_.assign(txns_.size(), -1.0);
  }

  /// Puts every transaction's submit timer on the virtual clock.
  void schedule_arrivals() {
    for (std::size_t i = 0; i < txns_.size(); ++i) {
      net_->schedule_timer(NodeId::client(ClientId{txns_[i].info.client}),
                           txns_[i].info.arrival_us, i);
    }
  }

  /// Round k's decision was processed by `server`. The coordinator's
  /// processing is the moment the signed responses leave for the clients.
  void on_round_decided(std::size_t k, std::uint32_t server, Outbox& out) {
    if (server != coord_.id || k >= round_responded_.size() ||
        round_responded_[k] != 0) {
      return;
    }
    round_responded_[k] = 1;
    Server& coord_server = cluster_->server(cluster_->coordinator_id());
    for (std::size_t i = 0; i < txns_.size(); ++i) {
      TxnState& t = txns_[i];
      if (t.info.round != k) continue;
      Writer w;
      w.u64(i);
      t.response = cluster_->transport().seal(coord_server.keypair(), coord_,
                                              "client_resp", std::move(w).take());
      t.response_ready = true;
      out.send(coord_, NodeId::client(ClientId{t.info.client}), t.response);
    }
  }

  void fill(OpenLoopOutcome& outcome) {
    outcome.latency_us = std::move(latency_us_);
    outcome.client_sends = sends_;
    outcome.client_retries = retries_;
    outcome.dup_responses = dups_;
    outcome.span_us = span_us_;
  }

  // --- Dispatcher -------------------------------------------------------------

  void dispatch(NodeId src, NodeId dst, const Envelope& env, Outbox& out) override {
    if (env.type == "client_submit") {
      handle_submit(dst, env, out);
      return;
    }
    if (env.type == "client_resp") {
      handle_resp(env);
      return;
    }
    pipeline_->dispatch(src, dst, env, out);
  }

  void dispatch_replay(NodeId src, NodeId dst, const Envelope& env, Outbox& out) override {
    if (env.type == "client_submit" || env.type == "client_resp") {
      dispatch(src, dst, env, out);
      return;
    }
    pipeline_->dispatch_replay(src, dst, env, out);
  }

  void on_control(const ControlEvent& ev, Outbox& out) override {
    if (ev.kind == ControlEvent::Kind::kTimer) {
      if (ev.node.kind == NodeId::Kind::kClient) handle_timer(ev, out);
      return;
    }
    pipeline_->on_control(ev, out);
  }

 private:
  struct TxnState {
    OpenLoopTxn info;
    ServerId affinity{0};
    Envelope submit;    ///< sealed once; retries re-send these exact bytes
    Envelope response;  ///< coordinator's cached response, replayed on late retries
    bool submitted{false};
    bool arrived{false};  ///< first copy reached the coordinator
    bool response_ready{false};
    bool responded{false};  ///< client saw the response
    std::uint32_t retries{0};
  };

  void handle_timer(const ControlEvent& ev, Outbox& out) {
    if (ev.tag >= txns_.size()) return;
    TxnState& t = txns_[ev.tag];
    if (t.responded) return;  // stale retry clock
    const NodeId me = NodeId::client(ClientId{t.info.client});
    if (!t.submitted) {
      Client& c = cluster_->client(ClientId{t.info.client});
      Writer w;
      w.u64(ev.tag);
      t.submit = cluster_->transport().seal(c.keypair(), me, "client_submit",
                                            std::move(w).take());
      t.submitted = true;
    } else {
      if (t.retries >= model_.max_retries) return;
      ++t.retries;
      ++retries_;
      cluster_->transport().count_copy(t.submit);
    }
    ++sends_;
    out.send(me, NodeId::server(t.affinity), t.submit);
    if (t.retries < model_.max_retries) {
      net_->schedule_timer(me, net_->now_us() + model_.retry_timeout_us, ev.tag);
    }
  }

  void handle_submit(NodeId dst, const Envelope& env, Outbox& out) {
    if (!cluster_->transport().open(env, "client_submit")) return;
    std::uint64_t tag = 0;
    try {
      Reader r(env.payload);
      tag = r.u64();
    } catch (const DecodeError&) {
      return;  // malformed submit: drop at the trust boundary
    }
    if (tag >= txns_.size()) return;
    TxnState& t = txns_[tag];
    if (dst != coord_) {
      // Session-affinity relay: the client's server forwards the (still
      // client-signed) request on a second simulated hop. Every received
      // copy is relayed; dedup is the coordinator's job.
      cluster_->transport().count_copy(env);
      out.send(dst, coord_, env);
      return;
    }
    if (t.response_ready) {
      // A retry arrived after the round decided: replay the cached signed
      // response rather than re-admitting anything.
      cluster_->transport().count_copy(t.response);
      out.send(coord_, NodeId::client(ClientId{t.info.client}), t.response);
      return;
    }
    if (t.arrived) return;  // duplicate submit before the decision
    t.arrived = true;
    if (--pending_[t.info.round] == 0) pipeline_->admit_batch(t.info.round);
  }

  void handle_resp(const Envelope& env) {
    if (!cluster_->transport().open(env, "client_resp")) return;
    std::uint64_t tag = 0;
    try {
      Reader r(env.payload);
      tag = r.u64();
    } catch (const DecodeError&) {
      return;  // malformed response: drop at the trust boundary
    }
    if (tag >= txns_.size()) return;
    TxnState& t = txns_[tag];
    if (t.responded) {
      ++dups_;
      return;
    }
    t.responded = true;
    latency_us_[tag] = net_->now_us() - t.info.arrival_us;
    span_us_ = std::max(span_us_, net_->now_us());
  }

  // All state is confined(actor): ClientSession is only ever driven by the
  // single-threaded SimNet event loop (see the class comment).
  Cluster* cluster_;                  // confined(actor)
  CommitPipeline* pipeline_;          // confined(actor)
  sim::SimNet* net_;                  // confined(actor)
  sim::ClientModel model_;            // confined(actor)
  NodeId coord_;                      // confined(actor)
  std::vector<TxnState> txns_;        // confined(actor)
  std::vector<std::size_t> pending_;  ///< submits not at coord -- confined(actor)
  std::vector<unsigned char> round_responded_;  // confined(actor)
  std::vector<double> latency_us_;              // confined(actor)
  std::uint64_t sends_{0};                      // confined(actor)
  std::uint64_t retries_{0};                    // confined(actor)
  std::uint64_t dups_{0};                       // confined(actor)
  double span_us_{0};                           // confined(actor)
};

}  // namespace

PipelineResult run_commit_rounds(Cluster& cluster, Protocol protocol,
                                 std::vector<std::vector<commit::SignedEndTxn>> batches,
                                 Scheduler& sched) {
  if (batches.empty()) return {};
  CommitPipeline pipeline(cluster, protocol, std::move(batches), sched);
  pipeline.run();
  return pipeline.collect();
}

void serve_commit_rounds(Cluster& cluster, Protocol protocol, std::size_t num_rounds,
                         Scheduler& sched) {
  if (num_rounds == 0) return;
  // Empty batches: cohorts work purely from delivered wire bytes, but the
  // pipeline still reserves one epoch per round — the identical sequence
  // the coordinator process reserves, which is what routes its frames to
  // the right reactors here.
  std::vector<std::vector<commit::SignedEndTxn>> batches(num_rounds);
  CommitPipeline pipeline(cluster, protocol, std::move(batches), sched);
  pipeline.begin();
  // No collect(): a cohort process can never observe global completion (it
  // counts only locally processed decisions); the scheduler's run loop exits
  // on the coordinator's shutdown frame.
  sched.run(pipeline);
}

OpenLoopOutcome run_open_loop_rounds(
    Cluster& cluster, Protocol protocol,
    std::vector<std::vector<commit::SignedEndTxn>> batches,
    std::vector<OpenLoopTxn> txns, const sim::ClientModel& model, sim::SimNet& net,
    Scheduler& sched) {
  OpenLoopOutcome outcome;
  if (batches.empty()) return outcome;
  const std::size_t num_rounds = batches.size();
  CommitPipeline pipeline(cluster, protocol, std::move(batches), sched,
                          /*external_admission=*/true);
  ClientSession session(cluster, pipeline, net, std::move(txns), model, num_rounds);
  pipeline.set_decision_hook([&](std::size_t k, std::uint32_t server) {
    session.on_round_decided(k, server, sched.outbox());
  });
  session.schedule_arrivals();
  pipeline.begin();  // admits nothing yet: every batch awaits its arrivals
  sched.run(session);
  outcome.pipeline = pipeline.collect();
  session.fill(outcome);
  return outcome;
}

CheckpointOutcome run_checkpoint_round(Cluster& cluster, Scheduler& sched) {
  // The bare core, with no placement policy: one global round that no
  // server ends (it is over when the scheduler drains) and that simply waits
  // out a dead coordinator — the checkpoint is an optimization.
  RoundDispatcher dispatch(cluster, sched, /*depth=*/1, /*speculate=*/false);
  auto round = std::make_unique<CheckpointRound>(cluster, cluster.epochs().reserve());
  const CheckpointRound& checkpoint = *round;
  dispatch.add_round(std::move(round));
  dispatch.begin();
  sched.run(dispatch);
  CheckpointOutcome outcome;
  outcome.metrics = dispatch.round_metrics(0);
  outcome.checkpoint = checkpoint.result();
  if (outcome.checkpoint.has_value()) {
    outcome.metrics.decision = ledger::Decision::kCommit;
    outcome.metrics.cosign_valid = true;
  }
  return outcome;
}

}  // namespace fides::engine

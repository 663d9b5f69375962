#include "engine/pipeline.hpp"

#include <deque>
#include <set>
#include <stdexcept>
#include <tuple>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "engine/dispatch_util.hpp"
#include "engine/reactor.hpp"
#include "sim/simnet.hpp"

namespace fides::engine {

namespace {

/// Opening messages start a round at a cohort; they are the only messages
/// that can causally overtake the previous round's decision, so they are
/// the only ones the watermark gates.
bool opens_round(const std::string& type) {
  return type == "tf_get_vote" || type == "2pc_prepare";
}

/// Decision-shaped TFCommit messages. The speculative pipeline gates these
/// per server (decisions apply strictly in round order — with the opening
/// gate dropped, a later round's decision can otherwise overtake an earlier
/// one on a reordering network and be lost as kFuture).
bool is_tf_decision(const std::string& type) {
  return type == "tf_decision" || type == "tf_term_decision";
}

class CommitPipeline final : public Dispatcher, public RoundObserver, public SpecContext {
 public:
  /// `external_admission`: rounds additionally wait for admit_batch(k) —
  /// the open-loop driver's "batch k fully arrived at the coordinator"
  /// signal. Off (the default) reproduces the classic pipeline: every batch
  /// is ready from the start.
  CommitPipeline(Cluster& cluster, Protocol protocol,
                 std::vector<std::vector<commit::SignedEndTxn>> batches,
                 Scheduler& sched, bool external_admission = false)
      : cluster_(&cluster),
        sched_(&sched),
        n_(cluster.num_servers()),
        coord_(cluster.coordinator_id().value),
        depth_(std::max<std::uint32_t>(1, cluster.config().pipeline_depth)),
        speculate_(cluster.config().speculate && protocol == Protocol::kTfCommit),
        base_height_(cluster.server(cluster.coordinator_id()).log().size()),
        watermark_(n_, 0),
        opened_(n_, 0),
        held_(n_),
        held_dec_(n_),
        dec_height_(base_height_),
        dec_head_(cluster.server(cluster.coordinator_id()).log().head_hash()),
        shard_roots_(n_),
        batch_ready_(batches.size(), external_admission ? 0 : 1) {
    // A server whose durable log is already past this pipeline's base (a
    // restarted serverd process rejoining a socket run mid-stream) has, by
    // construction, processed every decision up to its log head; its
    // watermarks start there so the coordinator's replay stream — which
    // resumes at that height — is not gated forever behind rounds this
    // process will never see again. Single-process runs start every live
    // server at base_height_, making this a no-op there.
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (cluster.is_crashed(ServerId{i})) continue;
      const std::size_t h = cluster.server(ServerId{i}).log().size();
      if (h > base_height_) watermark_[i] = opened_[i] = h - base_height_;
    }
    if (speculate_) {
      // Authoritative shard roots start from the live servers' trees; a
      // committed block's Σroots advance them as rounds decide.
      for (std::uint32_t i = 0; i < n_; ++i) {
        if (!cluster.is_crashed(ServerId{i})) {
          shard_roots_[i] = cluster.server(ServerId{i}).shard().merkle_root();
        }
      }
    }
    rounds_.reserve(batches.size());
    for (auto& batch : batches) {
      const std::uint64_t epoch = cluster.epochs().reserve();
      RoundState rs;
      rs.epoch = epoch;
      if (protocol == Protocol::kTfCommit) {
        rs.reactor = std::make_unique<TfCommitRound>(cluster, RoundPlacement::global(cluster),
                                                     epoch, std::move(batch), this,
                                                     speculate_ ? this : nullptr);
      } else {
        rs.reactor = std::make_unique<TwoPhaseRound>(cluster, epoch, std::move(batch), this);
      }
      epoch_to_round_.emplace(epoch, rounds_.size());
      rounds_.push_back(std::move(rs));
    }
  }

  PipelineResult run() {
    // Event-loop schedulers that wait on remote processes (sockets) cannot
    // rely on quiescence; they poll this predicate to know when every round
    // completed. Quiescence-driven schedulers ignore it.
    sched_->set_completion([this] {
      common::MutexLock lock(mutex_);
      return completed_ == rounds_.size();
    });
    begin();
    sched_->run(*this);
    return collect();
  }

  /// Starts the clock and admits whatever is ready. The open-loop driver
  /// calls this itself because *its* dispatcher (the client session), not
  /// the pipeline, must be what the scheduler runs.
  void begin() {
    t0_ = Clock::now();
    launch_ready();
  }

  /// Open-loop admission signal: batch k is fully assembled at the
  /// coordinator. Idempotent.
  void admit_batch(std::size_t k) EXCLUDES(mutex_) {
    {
      common::MutexLock lock(mutex_);
      if (k >= batch_ready_.size() || batch_ready_[k] != 0) return;
      batch_ready_[k] = 1;
    }
    launch_ready();
  }

  /// Fired (outside the pipeline lock) every time `server` finishes
  /// processing round k's decision — the open-loop session's cue to send
  /// client responses when `server` is the coordinator.
  void set_decision_hook(std::function<void(std::size_t, std::uint32_t)> hook) {
    decision_hook_ = std::move(hook);
  }

  PipelineResult collect() EXCLUDES(mutex_) {
    PipelineResult result;
    // Called at quiescence (nothing concurrent remains), but holding the
    // lock for the whole harvest keeps the analysis exact and costs nothing;
    // finalize() is pure metric folding and never re-enters the pipeline.
    common::MutexLock lock(mutex_);
    if (completed_ != rounds_.size()) {
      throw std::logic_error("commit pipeline stalled: " +
                             std::to_string(rounds_.size() - completed_) +
                             " round(s) incomplete at quiescence");
    }
    const double one_way = cluster_->config().network.one_way_latency_us;
    for (auto& rs : rounds_) {
      rs.reactor->finalize();
      RoundMetrics& m = rs.reactor->metrics();
      m.threads_used = sched_->concurrency();
      m.measured_latency_us =
          std::chrono::duration<double, std::micro>(rs.wall_end - rs.wall_start).count();
      // Direct mode: analytic network term (legs x one-way latency). Sim
      // mode: the virtual time the round's schedule actually took.
      const double net_term =
          rs.has_virtual_time ? rs.virtual_end_us - rs.virtual_start_us
                              : static_cast<double>(m.network_legs) * one_way;
      m.modeled_latency_us = m.coordinator_us + m.cohort_critical_us + net_term;
      result.rounds.push_back(std::move(m));
    }
    result.wall_us = since_us(t0_);
    return result;
  }

  // --- Dispatcher -------------------------------------------------------------

  void dispatch(NodeId src, NodeId dst, const Envelope& env, Outbox& out) override {
    dispatch_impl(src, dst, env, out, /*replay=*/false);
  }

  void dispatch_replay(NodeId src, NodeId dst, const Envelope& env, Outbox& out) override {
    dispatch_impl(src, dst, env, out, /*replay=*/true);
  }

  void dispatch_batch(std::span<const Delivery> batch, NodeId dst, Outbox& out) override {
    dispatch_inbox_batch(*cluster_, batch, dst,
                         [&](const Delivery& d, std::optional<bool> verdict) {
                           dispatch_impl(d.src, dst, *d.env, out, /*replay=*/false, verdict);
                         });
  }

  void on_control(const ControlEvent& ev, Outbox& out) override {
    switch (ev.kind) {
      case ControlEvent::Kind::kCrash:
        handle_crash(ev.node);
        break;
      case ControlEvent::Kind::kRecover:
        handle_recover(ev.node, out);
        break;
      case ControlEvent::Kind::kCoordinatorTimeout: {
        // The probe raced recovery; only a still-dead coordinator triggers
        // cohort-driven termination.
        if (!cluster_->is_crashed(ServerId{ev.node.id})) break;
        std::vector<RoundReactor*> term;
        {
          common::MutexLock lock(mutex_);
          if (!speculate_) {
            for (RoundState& rs : rounds_) {
              if (rs.started && rs.processed < n_) term.push_back(rs.reactor.get());
            }
          } else {
            // Speculative windows can hold several undecided rounds; their
            // co-signed aborts must chain, so terminations run one at a time
            // in round order (on_outcome starts the next).
            term_mode_ = true;
            if (RoundReactor* r = next_termination_locked()) term.push_back(r);
          }
        }
        // Reactors run outside the lock, like every delivery path: their
        // handlers call back into the observer/SpecContext, which locks.
        for (RoundReactor* r : term) r->begin_termination(out);
        break;
      }
      case ControlEvent::Kind::kPeerApplied: {
        // A remote process reported that the server it hosts processed a
        // round's decision. Control-plane input from the wire is untrusted:
        // validate both coordinates before touching any table.
        if (ev.node.kind != NodeId::Kind::kServer || ev.node.id >= n_) break;
        bool known = false;
        {
          common::MutexLock lock(mutex_);
          known = epoch_to_round_.find(ev.tag) != epoch_to_round_.end();
        }
        if (known) on_decision_processed(ev.tag, ev.node.id);
        break;
      }
      case ControlEvent::Kind::kTimer:
        break;  // client-session clocks; never routed to the pipeline
    }
  }

  // --- RoundObserver ----------------------------------------------------------

  void on_decision_processed(std::uint64_t epoch, std::uint32_t server) override {
    std::vector<Held> flush;
    std::size_t new_watermark = 0;
    std::size_t round_index = 0;
    bool fresh = false;
    {
      common::MutexLock lock(mutex_);
      const auto it_ep = epoch_to_round_.find(epoch);
      if (it_ep == epoch_to_round_.end() || server >= n_) return;
      const std::size_t k = it_ep->second;
      round_index = k;
      // Decisions are processed in round order at every server (gated —
      // round k+1's opening in lock-step mode, round k+1's decision under
      // speculation), so the watermark is a count.
      watermark_[server] = std::max<std::size_t>(watermark_[server], k + 1);
      new_watermark = watermark_[server];
      // Flush everything now admissible. The queue is scanned, not just its
      // head: a reordering network can enqueue round k+2 ahead of k+1.
      auto& hq = speculate_ ? held_dec_[server] : held_[server];
      for (auto it = hq.begin(); it != hq.end();) {
        if (it->round <= watermark_[server]) {
          flush.push_back(std::move(*it));
          it = hq.erase(it);
        } else {
          ++it;
        }
      }
      fresh = mark_processed_locked(k, server);
    }
    launch_ready();
    // Flushed messages run here, on `server`'s serialized context (this
    // callback sits inside that server's decision handler), preserving the
    // in-order processing the gate exists for.
    for (Held& h : flush) {
      RoundReactor* reactor = nullptr;
      {
        common::MutexLock lock(mutex_);
        reactor = rounds_[h.round].reactor.get();
      }
      deliver(*reactor, h.src, h.dst, h.env, sched_->outbox());
    }
    if (speculate_) {
      // Processing a decision implies the round's opening phase is behind
      // this server (decided rounds never replay their openings, so the
      // opening watermark must ride on the apply watermark or recovery
      // would gate held openings forever).
      note_opened(server, new_watermark - 1, sched_->outbox());
    }
    if (fresh) {
      // First time this (round, server) pair completed: tell the substrate
      // (the socket scheduler forwards it to the coordinator process as a
      // kPeerApplied frame) and the open-loop session.
      sched_->notify_applied(server, epoch);
      if (decision_hook_) decision_hook_(round_index, server);
    }
  }

  void on_outcome(std::uint64_t epoch, const ledger::Block& block, bool appended,
                  Outbox& out) override {
    if (!speculate_) return;
    RoundReactor* next = nullptr;
    bool terminate = false;
    {
      common::MutexLock lock(mutex_);
      const std::size_t k = epoch_to_round_.at(epoch);
      RoundState& rs = rounds_[k];
      if (rs.decided) return;  // a restarted round re-decides deterministically
      rs.decided = true;
      rs.applied = appended && block.committed();
      if (appended) {
        dec_height_ = block.height + 1;
        dec_head_ = block.digest();
      }
      if (rs.applied) {
        for (const auto& r : block.roots) {
          if (r.server.value < n_) shard_roots_[r.server.value] = r.root;
        }
      }
      ++decided_rounds_;
      if (decided_rounds_ < rounds_.size()) {
        RoundState& nrs = rounds_[decided_rounds_];
        if (nrs.started && nrs.processed < n_) next = nrs.reactor.get();
      }
      terminate = term_mode_ && cluster_->is_crashed(ServerId{coord_});
    }
    // Outside the lock: the next round validates its buffered votes (and
    // may fire its challenge) — or, mid-termination, the survivors take it
    // over now that its chain position is pinned.
    if (next != nullptr) {
      if (terminate) {
        next->begin_termination(out);
      } else {
        next->on_base_resolved(out);
      }
    }
  }

  // --- SpecContext ------------------------------------------------------------

  SpecContext::ChainPos opening_base(std::uint64_t epoch) override {
    common::MutexLock lock(mutex_);
    const std::size_t k = epoch_to_round_.at(epoch);
    const std::size_t undecided = k - std::min(decided_rounds_, k);
    ChainPos pos;
    // Projection: every undecided round below appends one block. A rejected
    // block (invalid co-sign) makes later projected heights overshoot —
    // harmless, cohorts treat speculative heights as advisory and the
    // challenge carries the real position.
    pos.height = dec_height_ + undecided;
    pos.prev_hash = undecided == 0 ? dec_head_ : crypto::Digest::zero();
    return pos;
  }

  bool base_resolved(std::uint64_t epoch) const override {
    common::MutexLock lock(mutex_);
    return decided_rounds_ >= epoch_to_round_.at(epoch);
  }

  std::optional<bool> applied(std::uint64_t epoch) const override {
    common::MutexLock lock(mutex_);
    const auto it = epoch_to_round_.find(epoch);
    if (it == epoch_to_round_.end()) return std::nullopt;
    const RoundState& rs = rounds_[it->second];
    if (!rs.decided) return std::nullopt;
    return rs.applied;
  }

  const crypto::Digest* shard_root(std::uint32_t server) const override {
    // Called on the coordinator's serialized context, but on_outcome writes
    // the roots from whichever worker decides the round — take the lock.
    // The returned pointer stays valid: the vector is sized in the ctor and
    // an engaged optional's payload address never changes on assignment.
    common::MutexLock lock(mutex_);
    if (server >= n_ || !shard_roots_[server].has_value()) return nullptr;
    return &*shard_roots_[server];
  }

  SpecContext::ChainPos decided_base() const override {
    common::MutexLock lock(mutex_);
    return ChainPos{dec_height_, dec_head_};
  }

 private:
  struct RoundState {
    std::unique_ptr<RoundReactor> reactor;
    std::uint64_t epoch{0};
    bool started{false};
    std::uint32_t processed{0};               ///< servers that handled the decision
    std::vector<unsigned char> processed_by;  ///< which ones (lazily sized to n)
    bool decided{false};         ///< outcome exists (speculative bookkeeping)
    bool applied{false};         ///< block committed with a valid co-sign
    Clock::time_point wall_start;
    Clock::time_point wall_end;
    bool has_virtual_time{false};
    double virtual_start_us{0};
    double virtual_end_us{0};
  };
  struct Held {
    NodeId src;
    NodeId dst;
    Envelope env;
    std::size_t round{0};
  };

  /// Records that `server` processed round k's decision; true on the first
  /// call for this (round, server). Duplicates — a re-delivered kPeerApplied
  /// frame, or recovery reconciliation racing the ACK it reconciles — are
  /// absorbed instead of double-counting toward completion.
  bool mark_processed_locked(std::size_t k, std::uint32_t server) REQUIRES(mutex_) {
    RoundState& rs = rounds_[k];
    if (rs.processed_by.empty()) rs.processed_by.assign(n_, 0);
    if (rs.processed_by[server] != 0) return false;
    rs.processed_by[server] = 1;
    if (++rs.processed == n_) {
      rs.wall_end = Clock::now();
      if (const auto v = sched_->virtual_now_us()) rs.virtual_end_us = *v;
      ++completed_;
    }
    return true;
  }

  /// `verdict`, when set, is the pre-computed open() result for this
  /// envelope (from dispatch_batch's aggregate verification); deliver() then
  /// skips its own signature check.
  void dispatch_impl(NodeId src, NodeId dst, const Envelope& env, Outbox& out,
                     bool replay, std::optional<bool> verdict = std::nullopt)
      EXCLUDES(mutex_) {
    const auto epoch = peek_epoch(env.payload);
    if (!epoch.has_value()) return;  // not an engine frame; unreachable for sealed traffic
    RoundReactor* reactor = nullptr;
    std::size_t round_index = 0;
    {
      common::MutexLock lock(mutex_);
      // Replay deliveries are the recovery catch-up stream: deliberate
      // re-sends of tuples the filter has usually seen. Record them (so any
      // further normal copy is still deduplicated) but never drop them.
      const bool fresh = dedup_.first(src, dst, env.type, *epoch);
      if (!fresh && !replay) return;
      const auto it = epoch_to_round_.find(*epoch);
      if (it == epoch_to_round_.end()) return;  // stale epoch from another run
      const std::size_t k = it->second;
      round_index = k;
      // Engine traffic for round k proves its coordinator — possibly in
      // another process — started it; a serverd's recovery scan needs the
      // flag to know which rounds are live. No-op in single-process runs,
      // where launch_ready set it before the first send.
      rounds_[k].started = true;
      if (dst.kind == NodeId::Kind::kServer) {
        if (opens_round(env.type)) {
          // Lock-step: hold round k's opening until k-1's decision applied
          // (votes build on applied state). Speculating: hold only until
          // the previous *opening* was processed — votes build on the
          // pending overlay, but the stack must grow in round order.
          if (speculate_ && watermark_[dst.id] > k) {
            // The round is already over at this server (it processed the
            // decision — a terminated round, or recovery replay): a late
            // opening must not enter the pending stack.
            return;
          }
          const std::size_t gate = speculate_ ? opened_[dst.id] : watermark_[dst.id];
          if (gate < k) {
            held_[dst.id].push_back(Held{src, dst, env, k});
            return;
          }
        } else if (speculate_ && is_tf_decision(env.type) && watermark_[dst.id] < k) {
          // With the opening gate dropped, decisions can overtake each
          // other; they must still apply strictly in round order.
          held_dec_[dst.id].push_back(Held{src, dst, env, k});
          return;
        }
      }
      reactor = rounds_[k].reactor.get();
    }
    deliver(*reactor, src, dst, env, out, verdict);
    if (speculate_ && opens_round(env.type) && dst.kind == NodeId::Kind::kServer) {
      note_opened(dst.id, round_index, out);
    }
  }

  /// The cohort processed round k's opening: advance its opening watermark
  /// and release the next held opening (recursing until the queue is in
  /// step again — held entries can sit out of round order after reordering).
  void note_opened(std::uint32_t server, std::size_t k, Outbox& out)
      EXCLUDES(mutex_) {
    std::optional<Held> next;
    {
      common::MutexLock lock(mutex_);
      if (opened_[server] < k + 1) opened_[server] = k + 1;
      auto& hq = held_[server];
      for (auto it = hq.begin(); it != hq.end();) {
        if (it->round < watermark_[server]) {
          it = hq.erase(it);  // the round decided while its opening was held
        } else if (it->round <= opened_[server]) {
          next = std::move(*it);
          hq.erase(it);
          break;
        } else {
          ++it;
        }
      }
    }
    if (next.has_value()) {
      RoundReactor* reactor = nullptr;
      {
        common::MutexLock lock(mutex_);
        reactor = rounds_[next->round].reactor.get();
      }
      deliver(*reactor, next->src, next->dst, next->env, out);
      note_opened(server, next->round, out);
    }
  }

  void deliver(RoundReactor& reactor, NodeId src, NodeId dst, const Envelope& env,
               Outbox& out, std::optional<bool> verdict = std::nullopt) {
    if (deliver_checked(*cluster_, *sched_, dst, env, verdict, [&](bool authentic) {
          reactor.on_deliver(src, dst, env, authentic, out);
        })) {
      handle_crash(dst);
    }
  }

  void handle_crash(NodeId node) EXCLUDES(mutex_) {
    apply_crash(*cluster_, *sched_, node);
    common::MutexLock lock(mutex_);
    if (node.kind == NodeId::Kind::kServer && node.id < n_) {
      held_[node.id].clear();
      held_dec_[node.id].clear();
    }
  }

  void handle_recover(NodeId node, Outbox& out) EXCLUDES(mutex_) {
    if (!cluster_->recover_server(ServerId{node.id})) {
      // The durable log failed its integrity check: the server must not
      // rejoin. Mark it dead on the substrate again (no recovery scheduled:
      // it stays dead); the run surfaces the stall as a pipeline error.
      sched_->crash_node(node);
      return;
    }
    std::vector<RoundReactor*> catch_up;
    {
      common::MutexLock lock(mutex_);
      dedup_.forget_dst(node);
      held_[node.id].clear();
      held_dec_[node.id].clear();
      // The apply watermark is *recovered from the durable log*: blocks the
      // server re-ingested during restore are exactly the decisions it had
      // processed, so pipelined depth-K runs resume where the log says.
      const std::size_t durable = cluster_->server(ServerId{node.id}).log().size();
      if (durable > base_height_) {
        watermark_[node.id] =
            std::max<std::size_t>(watermark_[node.id], durable - base_height_);
      }
      // Reconcile completions the crash swallowed: every round below the
      // recovered watermark was durably applied by this server, but over
      // sockets its kPeerApplied frame may have died with the process (a
      // serverd killed between the durable append and the ACK reaching the
      // coordinator). Single-process substrates fire the observer in the
      // same call stack as the append, so this loop finds nothing there.
      for (std::size_t k = 0; k < watermark_[node.id] && k < rounds_.size(); ++k) {
        mark_processed_locked(k, node.id);
      }
      // The pending-opening stack died with the node; the replay stream
      // re-supplies openings from the watermark up, and the gate must make
      // it re-process them in round order.
      opened_[node.id] = watermark_[node.id];
      if (node.id == coord_) {
        // A restarted round re-asks everything; let the re-asks through.
        for (const RoundState& rs : rounds_) {
          if (rs.started && rs.processed < n_) dedup_.forget_epoch(rs.epoch);
        }
      }
      // Catch up only the rounds this server has not yet processed — its
      // watermark (recovered above) already covers everything durable, and
      // re-driving a processed round would double-count it at the observer.
      for (std::size_t k = watermark_[node.id]; k < rounds_.size(); ++k) {
        const RoundState& rs = rounds_[k];
        if (!rs.started || rs.processed >= n_) continue;
        catch_up.push_back(rs.reactor.get());
      }
    }
    for (RoundReactor* r : catch_up) r->on_recover(node.id, out);
    launch_ready();
  }

  /// First started round that has no outcome yet is next in line for
  /// termination; the rest follow one by one as on_outcome advances the
  /// decided chain (their abort blocks must extend it).
  RoundReactor* next_termination_locked() REQUIRES(mutex_) {
    for (RoundState& rs : rounds_) {
      if (!rs.started || rs.processed >= n_ || rs.decided) continue;
      return rs.reactor.get();
    }
    return nullptr;
  }

  /// Starts every admissible round. Starts execute on the coordinator's
  /// serialized context (posted to its queue): start() reads the
  /// coordinator's log head, which only its own decision handlers mutate.
  void launch_ready() EXCLUDES(mutex_) {
    std::vector<std::size_t> starts;
    {
      common::MutexLock lock(mutex_);
      while (next_to_start_ < rounds_.size() && can_start_locked(next_to_start_)) {
        rounds_[next_to_start_].started = true;
        starts.push_back(next_to_start_++);
      }
    }
    const NodeId coord_node = NodeId::server(ServerId{coord_});
    for (const std::size_t k : starts) {
      sched_->post(coord_node, [this, k] {
        RoundReactor* reactor = nullptr;
        {
          common::MutexLock lock(mutex_);
          rounds_[k].wall_start = Clock::now();
          if (const auto v = sched_->virtual_now_us()) {
            rounds_[k].has_virtual_time = true;
            rounds_[k].virtual_start_us = *v;
          }
          reactor = rounds_[k].reactor.get();
        }
        reactor->start(sched_->outbox());
      });
    }
  }

  bool can_start_locked(std::size_t k) const REQUIRES(mutex_) {
    // Open-loop admission: the batch must have fully arrived at the
    // coordinator (always true for closed-loop pipelines).
    if (batch_ready_[k] == 0) return false;
    // A dead coordinator admits nothing; admission resumes with recovery.
    if (cluster_->is_crashed(ServerId{coord_})) return false;
    // Coordinator gate (lock-step only): its log head must already name
    // round k's prev-hash. A speculative opening projects the position, so
    // admission is bounded by the depth window alone.
    if (!speculate_ && k > 0 && watermark_[coord_] < k) return false;
    // Depth gate: started-but-incomplete rounds stay under the limit.
    return k - completed_ < depth_;
  }

  Cluster* cluster_;         // confined(ctor): immutable after construction
  Scheduler* sched_;         // confined(ctor): immutable after construction
  std::uint32_t n_;          // confined(ctor): immutable after construction
  std::uint32_t coord_;      // confined(ctor): immutable after construction
  std::uint32_t depth_;      // confined(ctor): immutable after construction
  bool speculate_;           ///< TFCommit only -- confined(ctor)
  std::size_t base_height_;  ///< height at pipeline start -- confined(ctor)

  mutable common::Mutex mutex_;
  std::vector<RoundState> rounds_ GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, std::size_t> epoch_to_round_ GUARDED_BY(mutex_);
  Dedup dedup_ GUARDED_BY(mutex_);
  std::vector<std::size_t> watermark_
      GUARDED_BY(mutex_);  ///< per server: decisions processed
  std::vector<std::size_t> opened_
      GUARDED_BY(mutex_);  ///< per server: openings processed (spec)
  std::vector<std::deque<Held>> held_
      GUARDED_BY(mutex_);  ///< per server: gated openings
  std::vector<std::deque<Held>> held_dec_
      GUARDED_BY(mutex_);  ///< per server: gated decisions (spec)
  std::size_t next_to_start_ GUARDED_BY(mutex_){0};
  std::size_t completed_ GUARDED_BY(mutex_){0};

  // Decided-chain registry (speculation): what the coordinator knows once a
  // round's outcome exists — the chain head every later opening projects
  // from, and the authoritative per-shard roots vote tags validate against.
  std::uint64_t dec_height_ GUARDED_BY(mutex_){0};
  crypto::Digest dec_head_ GUARDED_BY(mutex_);
  std::size_t decided_rounds_ GUARDED_BY(mutex_){0};
  std::vector<std::optional<crypto::Digest>> shard_roots_ GUARDED_BY(mutex_);
  bool term_mode_ GUARDED_BY(mutex_){false};  ///< terminations in progress

  Clock::time_point t0_;  // confined(driver): begin()/collect() only, outside run()
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

/// Single-round dispatcher for the checkpoint CoSi round.
class CheckpointDispatch final : public Dispatcher {
 public:
  CheckpointDispatch(Cluster& cluster, CheckpointRound& round, Scheduler& sched)
      : cluster_(&cluster), round_(&round), sched_(&sched) {}

  void dispatch(NodeId src, NodeId dst, const Envelope& env, Outbox& out) override {
    dispatch_impl(src, dst, env, out, /*replay=*/false);
  }

  void dispatch_replay(NodeId src, NodeId dst, const Envelope& env, Outbox& out) override {
    dispatch_impl(src, dst, env, out, /*replay=*/true);
  }

  void on_control(const ControlEvent& ev, Outbox& out) override {
    switch (ev.kind) {
      case ControlEvent::Kind::kCrash:
        apply_crash(*cluster_, *sched_, ev.node);
        break;
      case ControlEvent::Kind::kRecover:
        if (!cluster_->recover_server(ServerId{ev.node.id})) {
          sched_->crash_node(ev.node);
          return;
        }
        {
          common::MutexLock lock(mutex_);
          dedup_.forget_dst(ev.node);
          if (ev.node.id == cluster_->coordinator_id().value) {
            dedup_.forget_epoch(round_->epoch());
          }
        }
        round_->on_recover(ev.node.id, out);
        break;
      case ControlEvent::Kind::kCoordinatorTimeout:
        break;  // the checkpoint is an optimization: it simply waits
      case ControlEvent::Kind::kPeerApplied:
      case ControlEvent::Kind::kTimer:
        break;  // commit-pipeline / client-session events; not ours
    }
  }

 private:
  void dispatch_impl(NodeId src, NodeId dst, const Envelope& env, Outbox& out,
                     bool replay) {
    const auto epoch = peek_epoch(env.payload);
    if (!epoch.has_value()) return;
    {
      // Concurrent in-process workers dispatch for different destinations;
      // the dedup set is the one piece of state they share.
      common::MutexLock lock(mutex_);
      const bool fresh = dedup_.first(src, dst, env.type, *epoch);
      if (!fresh && !replay) return;
    }
    if (deliver_checked(*cluster_, *sched_, dst, env, std::nullopt, [&](bool authentic) {
          round_->on_deliver(src, dst, env, authentic, out);
        })) {
      apply_crash(*cluster_, *sched_, dst);
    }
  }

  Cluster* cluster_;        // confined(ctor): immutable after construction
  CheckpointRound* round_;  // confined(ctor): immutable after construction
  Scheduler* sched_;        // confined(ctor): immutable after construction
  common::Mutex mutex_;
  Dedup dedup_ GUARDED_BY(mutex_);
};

}  // namespace

PipelineResult run_commit_rounds(Cluster& cluster, Protocol protocol,
                                 std::vector<std::vector<commit::SignedEndTxn>> batches,
                                 Scheduler& sched) {
  if (batches.empty()) return {};
  CommitPipeline pipeline(cluster, protocol, std::move(batches), sched);
  return pipeline.run();
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
  // No collect(): a cohort process can never observe global completion
  // (its completed_ counts only locally processed decisions); the
  // scheduler's run loop exits on the coordinator's shutdown frame.
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
  const auto t0 = Clock::now();
  const auto vstart = sched.virtual_now_us();

  CheckpointRound round(cluster, cluster.epochs().reserve());
  CheckpointDispatch dispatch(cluster, round, sched);
  sched.post(NodeId::server(cluster.coordinator_id()),
             [&] { round.start(sched.outbox()); });
  sched.run(dispatch);

  round.finalize();
  CheckpointOutcome outcome;
  outcome.checkpoint = round.result();
  outcome.metrics = round.metrics();
  outcome.metrics.threads_used = sched.concurrency();
  outcome.metrics.measured_latency_us = since_us(t0);
  const double net_term =
      vstart.has_value()
          ? sched.virtual_now_us().value_or(*vstart) - *vstart
          : static_cast<double>(outcome.metrics.network_legs) *
                cluster.config().network.one_way_latency_us;
  outcome.metrics.modeled_latency_us =
      outcome.metrics.coordinator_us + outcome.metrics.cohort_critical_us + net_term;
  if (outcome.checkpoint.has_value()) {
    outcome.metrics.decision = ledger::Decision::kCommit;
    outcome.metrics.cosign_valid = true;
  }
  return outcome;
}

}  // namespace fides::engine

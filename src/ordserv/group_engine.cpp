#include "ordserv/group_engine.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "commit/batch.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "engine/dispatch_util.hpp"
#include "engine/reactor.hpp"

namespace fides::ordserv {
namespace {

using engine::Clock;
using engine::server_node;
using engine::since_us;

/// Wire codec for a sequenced OrdServ entry (SequencedBlock carries no serde
/// of its own — it never crossed a wire before the group engine).
Bytes encode_entry(const SequencedBlock& e) {
  Writer w;
  w.bytes(e.block.serialize());
  w.u32(static_cast<std::uint32_t>(e.group.members.size()));
  for (const ServerId s : e.group.members) w.u32(s.value);
  w.u32(e.group.coordinator.value);
  w.u32(static_cast<std::uint32_t>(e.depends_on.size()));
  for (const std::uint64_t d : e.depends_on) w.u64(d);
  return std::move(w).take();
}

std::optional<SequencedBlock> decode_entry(BytesView body) {
  try {
    Reader r(body);
    const Bytes block_bytes = r.bytes();
    const auto block = ledger::Block::deserialize(block_bytes);
    if (!block.has_value()) return std::nullopt;
    SequencedBlock e;
    e.block = *block;
    const std::uint32_t nm = r.u32();
    e.group.members.reserve(nm);
    for (std::uint32_t i = 0; i < nm; ++i) e.group.members.push_back(ServerId{r.u32()});
    e.group.coordinator = ServerId{r.u32()};
    const std::uint32_t nd = r.u32();
    e.depends_on.reserve(nd);
    for (std::uint32_t i = 0; i < nd; ++i) e.depends_on.push_back(r.u64());
    r.expect_done();
    return e;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

/// The engine: OrdServ policy around one TfCommitRound per group round (the
/// reactor owns every TFCommit phase) — per-server touch-order admission and
/// opening gates, the sequencing barrier, gtf_seq/gtf_refuse delivery
/// through StreamValidator, and recovery of the sequenced stream. As
/// RoundObserver it sequences each outcome; as SpecContext it answers
/// speculating reactors from the decided rounds.
///
/// One plain mutex guards the engine's own state. Reactors run outside it,
/// as under the global pipeline, because they call back into the observer
/// and SpecContext: work a locked handler uncovers for a reactor runs after
/// unlocking (held openings in deliver(), starts in drain_starts(), base
/// resolutions posted to each round's coordinator context).
class GroupEngine final : public engine::Dispatcher,
                          public engine::RoundObserver,
                          public engine::SpecContext {
 public:
  GroupEngine(Cluster& cluster, Sequencer& seq,
              std::vector<std::vector<commit::SignedEndTxn>> batches,
              engine::Scheduler& sched)
      : cluster_(&cluster),
        transport_(&cluster.transport()),
        seq_(&seq),
        sched_(&sched),
        n_(cluster.num_servers()),
        depth_(std::min<std::size_t>(
            std::max<std::size_t>(1, cluster.config().pipeline_depth), 8)),
        speculate_(cluster.config().speculate),
        touch_rounds_(n_),
        gate_upto_(n_, 0),
        started_upto_(n_, 0),
        unresolved_(n_, 0),
        decided_upto_(n_, 0),
        shard_roots_(n_),
        held_(n_),
        pending_entries_(n_),
        validators_(n_),
        refusals_(n_) {
    rounds_.reserve(batches.size());
    reactors_.reserve(batches.size());
    for (auto& batch : batches) {
      Round r;
      if (batch.empty()) {
        // No transactions → no group. Without this refusal a fabricated
        // single-server group would co-sign an empty "committed" block.
        r.terminal = true;
        r.fault = "empty batch refused at submission";
      } else {
        auto ordered = batch;
        commit::order_batch(ordered);
        r.group = group_for(commit::batch_txns(ordered), n_);
        if (r.group.members.empty()) {
          r.terminal = true;
          r.fault = "batch touches no shard";
        }
      }
      const std::size_t k = rounds_.size();
      std::unique_ptr<engine::TfCommitRound> reactor;
      if (r.terminal) {
        // Refused at admission: no epoch, no traffic, complete immediately.
        r.decided = true;
        r.completed = true;
        ++completed_;
      } else {
        // OrdServ hands out the epoch — a unique CoSi nonce domain per round
        // even when many group coordinators run concurrently; reserved for
        // every admissible round up front, in round order, so the epoch
        // sequence (and hence every signed byte) is schedule-independent.
        r.epoch = group_epoch(seq_->epochs().reserve());
        r.done_at.assign(n_, 0);
        r.opened_at.assign(n_, 0);
        r.target = n_;  // every server processes the sequenced entry
        for (const ServerId m : r.group.members) {
          r.touch_pos[m.value] = touch_rounds_[m.value].size();
          touch_rounds_[m.value].push_back(k);
        }
        epoch_to_round_[r.epoch] = k;
        engine::RoundPlacement placement{r.group.members, r.group.coordinator,
                                         /*unchained=*/true};
        reactor = std::make_unique<engine::TfCommitRound>(
            cluster, std::move(placement), r.epoch, std::move(batch), this,
            speculate_ ? this : nullptr);
      }
      rounds_.push_back(std::move(r));
      reactors_.push_back(std::move(reactor));
    }
    // Seed delivery validators from the servers' existing logs, so several
    // engine runs can extend one cluster+sequencer stream (server logs are
    // prefixes of the sequenced stream under engine delivery).
    for (std::uint32_t s = 0; s < n_; ++s) reset_validator(s);
  }

  void begin() EXCLUDES(mutex_) {
    start_wall_ = Clock::now();
    sched_->set_completion([this] {
      common::MutexLock lock(mutex_);
      return completed_ == rounds_.size();
    });
    {
      common::MutexLock lock(mutex_);
      launch_ready();
    }
    drain_starts();
  }

  GroupRunResult collect() EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    GroupRunResult result;
    result.rounds.reserve(rounds_.size());
    for (std::size_t k = 0; k < rounds_.size(); ++k) {
      const Round& r = rounds_[k];
      engine::TfCommitRound* reactor = reactors_[k].get();
      if (!r.completed) {
        throw std::logic_error(
            "group commit stalled: round " + std::to_string(k) + " (group of " +
            std::to_string(r.group.members.size()) + " led by S" +
            std::to_string(r.group.coordinator.value) + ", " + reactor->progress() +
            ") saw " + std::to_string(r.done_count) + "/" + std::to_string(r.target) +
            " completions" + (r.fault.empty() ? "" : " (" + r.fault + ")"));
      }
      GroupRoundResult rr;
      rr.group = r.group;
      rr.group_size = r.group.members.size();
      rr.fault = r.fault;
      if (reactor != nullptr) {
        reactor->finalize();
        const RoundMetrics& m = reactor->metrics();
        rr.decision = m.decision;
        rr.cosign_valid = m.cosign_valid;
        rr.refusals = m.refusals;
        rr.faulty_cosigners = m.faulty_cosigners;
        rr.vote_equivocators = m.vote_equivocators;
        result.spec_revotes += m.spec_revotes;
      }
      if (r.entry.has_value()) rr.global_height = r.entry->block.height;
      result.rounds.push_back(std::move(rr));
    }
    result.delivery_refusals = refusals_;
    result.wall_us = since_us(start_wall_);
    return result;
  }

  // --- Dispatcher --------------------------------------------------------------

  void dispatch(NodeId src, NodeId dst, const Envelope& env, engine::Outbox& out) override {
    dispatch_impl(src, dst, env, out, /*replay=*/false, std::nullopt);
  }

  void dispatch_replay(NodeId src, NodeId dst, const Envelope& env,
                       engine::Outbox& out) override {
    dispatch_impl(src, dst, env, out, /*replay=*/true, std::nullopt);
  }

  void dispatch_batch(std::span<const Delivery> batch, NodeId dst,
                      engine::Outbox& out) override {
    engine::dispatch_inbox_batch(*cluster_, batch, dst,
                                 [&](const Delivery& d, std::optional<bool> verdict) {
                                   dispatch_impl(d.src, dst, *d.env, out,
                                                 /*replay=*/false, verdict);
                                 });
  }

  void on_control(const engine::ControlEvent& ev, engine::Outbox& out) override
      EXCLUDES(mutex_) {
    std::vector<engine::TfCommitRound*> catch_up;
    {
      common::MutexLock lock(mutex_);
      switch (ev.kind) {
        case engine::ControlEvent::Kind::kCrash:
          handle_crash(ev.node);
          break;
        case engine::ControlEvent::Kind::kRecover:
          catch_up = handle_recover(ev.node, out);
          break;
        case engine::ControlEvent::Kind::kCoordinatorTimeout:
        case engine::ControlEvent::Kind::kTimer:
        case engine::ControlEvent::Kind::kPeerApplied:
          // Group rounds have no cooperative-termination story yet (a crashed
          // group coordinator restarts from its durable log instead), no
          // timers, and no cross-process distribution.
          break;
      }
    }
    for (engine::TfCommitRound* reactor : catch_up) reactor->on_recover(ev.node.id, out);
    drain_starts();  // recovery re-admits rounds
  }

  // --- RoundObserver -----------------------------------------------------------

  /// Unchained rounds broadcast no decision (gtf_seq / gtf_refuse end them).
  void on_decision_processed(std::uint64_t /*epoch*/, std::uint32_t /*server*/) override {}

  /// A group round decided: refuse it if it cannot be sequenced, let later
  /// speculative rounds check their votes, and sequence what the barrier admits.
  void on_outcome(std::uint64_t epoch, const ledger::Block& block, bool appended,
                  engine::Outbox& out) override EXCLUDES(mutex_) {
    std::vector<std::size_t> resolvable;
    {
      common::MutexLock lock(mutex_);
      const std::size_t k = epoch_to_round_.at(epoch);
      Round& r = rounds_[k];
      if (r.decided) return;
      r.block = block;
      r.applied = appended && block.committed();
      if (!appended) {
        // An unsignable block never reaches OrdServ; the members learn the
        // round is over (and who to blame) via the refusal broadcast.
        const std::string& fault = reactors_[k]->fault();
        refuse_round(k, fault.empty() ? "co-sign did not verify" : fault, out);
      }
      resolvable = mark_decided(k);
    }
    // Outside the lock: a resolved round validates its buffered votes (and
    // may fire its challenge) on its own coordinator's context.
    for (const std::size_t k : resolvable) {
      engine::TfCommitRound* reactor = reactors_[k].get();
      sched_->post(reactor->coordinator_node(),
                   [this, reactor] { reactor->on_base_resolved(sched_->outbox()); });
    }
    common::MutexLock lock(mutex_);
    advance_sequencing(out);
  }

  // --- SpecContext -------------------------------------------------------------
  // Group votes speculate on earlier group rounds at the same member; their
  // chain position is OrdServ's, so unchained rounds never ask the chain.

  ChainPos opening_base(std::uint64_t /*epoch*/) override { return {}; }
  ChainPos decided_base() const override { return {}; }

  bool base_resolved(std::uint64_t epoch) const override EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    return base_resolved_locked(rounds_[epoch_to_round_.at(epoch)]);
  }

  std::optional<bool> applied(std::uint64_t epoch) const override EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    const auto it = epoch_to_round_.find(epoch);
    if (it == epoch_to_round_.end()) return std::nullopt;
    const Round& r = rounds_[it->second];
    if (!r.decided) return std::nullopt;
    return r.applied;
  }

  const crypto::Digest* shard_root(std::uint32_t server) const override EXCLUDES(mutex_) {
    // The returned pointer stays valid: the vector is sized in the ctor and
    // an engaged optional's payload address never changes on assignment.
    common::MutexLock lock(mutex_);
    if (server >= n_ || !shard_roots_[server].has_value()) return nullptr;
    return &*shard_roots_[server];
  }

 private:
  struct Round {
    // Immutable after construction.
    ServerGroup group;
    std::uint64_t epoch{0};
    bool terminal{false};  ///< refused at admission; no protocol traffic
    /// member → its index in touch_rounds_
    std::unordered_map<std::uint32_t, std::size_t> touch_pos;

    bool started{false};

    // Sequencing / refusal.
    bool decided{false};  ///< outcome (or admission refusal) known
    bool applied{false};  ///< outcome committed with a valid co-sign
    ledger::Block block;  ///< the outcome's block, once decided
    bool refused{false};  ///< never reaches OrdServ; members told via gtf_refuse
    std::string fault;
    std::optional<SequencedBlock> entry;  ///< set once sequenced
    Envelope entry_env;
    Envelope refuse_env;  ///< empty type until sealed

    // Completion.
    std::vector<unsigned char> done_at;    ///< per server: entry/refusal processed
    std::vector<unsigned char> opened_at;  ///< per server: opening processed (spec gate)
    std::size_t done_count{0};
    std::size_t target{0};
    bool completed{false};
  };

  struct Held {
    NodeId src;
    NodeId dst;
    Envelope env;
    std::size_t round{0};
  };

  // --- Gates -------------------------------------------------------------------

  /// Whether touch position `pos` at server `s` is admissible for opening
  /// processing: every earlier round touching s has passed (lock-step: its
  /// decision processed; speculating: its opening processed).
  void advance_gate(std::uint32_t s) REQUIRES(mutex_) {
    const auto& tr = touch_rounds_[s];
    while (gate_upto_[s] < tr.size()) {
      const Round& r = rounds_[tr[gate_upto_[s]]];
      const bool passed = r.done_at[s] != 0 || (speculate_ && r.opened_at[s] != 0);
      if (!passed) break;
      ++gate_upto_[s];
    }
  }

  /// Delivers, on server s's context, every held opening its gate now
  /// admits (the deliveries may advance the gate further).
  void flush_held(std::uint32_t s, engine::Outbox& out) EXCLUDES(mutex_) {
    for (;;) {
      std::optional<Held> next;
      {
        common::MutexLock lock(mutex_);
        next = take_admissible_held(s);
      }
      if (!next.has_value()) return;
      deliver(next->round, next->src, next->dst, next->env, out, std::nullopt);
    }
  }

  /// Removes and returns the first held opening at s whose gate is open
  /// (dropping openings of rounds already resolved there).
  std::optional<Held> take_admissible_held(std::uint32_t s) REQUIRES(mutex_) {
    auto& held = held_[s];
    for (auto it = held.begin(); it != held.end();) {
      const Round& r = rounds_[it->round];
      if (r.done_at[s] != 0) {
        it = held.erase(it);  // resolved while the opening waited
        continue;
      }
      if (r.touch_pos.at(s) <= gate_upto_[s]) {
        Held h = std::move(*it);
        held.erase(it);
        return h;
      }
      ++it;
    }
    return std::nullopt;
  }

  /// Member s processed round k's opening: under speculation that passes
  /// the opening gate for the next round touching s.
  void note_opened(std::size_t k, std::uint32_t s) REQUIRES(mutex_) {
    Round& r = rounds_[k];
    if (!speculate_ || !r.touch_pos.count(s) || r.opened_at[s] != 0) return;
    r.opened_at[s] = 1;
    advance_gate(s);
  }

  // --- Admission ---------------------------------------------------------------

  /// Starts every unstarted round whose members all have open pipeline
  /// windows. Unlike the global pipeline this scans *all* unstarted rounds,
  /// not just the next one — a depth-limited group must not stall a disjoint
  /// group behind it; that independence is the point of §4.6. On shared
  /// members, though, admission is strictly touch-ordered (started_upto_):
  /// letting a later round claim a member's window slot before an earlier
  /// toucher launched would deadlock the window against the opening gate.
  void launch_ready() REQUIRES(mutex_) {
    for (std::size_t k = 0; k < rounds_.size(); ++k) {
      Round& r = rounds_[k];
      if (r.terminal || r.started || r.decided) continue;
      if (cluster_->is_crashed(r.group.coordinator)) continue;  // starts at recovery
      bool window = true;
      for (const ServerId m : r.group.members) {
        const auto tp = r.touch_pos.find(m.value);
        if (unresolved_[m.value] >= depth_ ||
            (tp != r.touch_pos.end() && tp->second > started_upto_[m.value])) {
          window = false;
          break;
        }
      }
      if (!window) continue;
      r.started = true;
      for (const ServerId m : r.group.members) {
        ++unresolved_[m.value];
        advance_started(m.value);
      }
      pending_starts_.push_back(k);  // started unlocked, by drain_starts()
    }
  }

  /// Posts every queued round start onto its coordinator's context. Called
  /// by each entry point (begin / dispatch / on_control) after unlocking.
  void drain_starts() EXCLUDES(mutex_) {
    for (;;) {
      std::vector<std::size_t> starts;
      {
        common::MutexLock lock(mutex_);
        starts.swap(pending_starts_);
      }
      if (starts.empty()) return;
      for (const std::size_t k : starts) {
        engine::TfCommitRound* reactor = reactors_[k].get();
        sched_->post(reactor->coordinator_node(),
                     [this, reactor] { reactor->start(sched_->outbox()); });
      }
    }
  }

  void advance_started(std::uint32_t s) REQUIRES(mutex_) {
    const auto& tr = touch_rounds_[s];
    while (started_upto_[s] < tr.size() &&
           (rounds_[tr[started_upto_[s]]].started || rounds_[tr[started_upto_[s]]].terminal)) {
      ++started_upto_[s];
    }
  }

  // --- Dispatch ----------------------------------------------------------------

  void dispatch_impl(NodeId src, NodeId dst, const Envelope& env, engine::Outbox& out,
                     bool replay, std::optional<bool> verdict) EXCLUDES(mutex_) {
    std::size_t k = 0;
    bool admitted = false;
    {
      common::MutexLock lock(mutex_);
      admitted = admit(src, dst, env, replay, k);
    }
    if (admitted) deliver(k, src, dst, env, out, verdict);
    drain_starts();  // completions inside the handler may admit new rounds
  }

  /// Dedup and the opening gate: false when the envelope is dropped or held.
  bool admit(NodeId src, NodeId dst, const Envelope& env, bool replay, std::size_t& k)
      REQUIRES(mutex_) {
    const auto ep = engine::peek_epoch(env.payload);
    if (!ep.has_value()) return false;
    const auto rit = epoch_to_round_.find(*ep);
    if (rit == epoch_to_round_.end()) return false;
    k = rit->second;
    if (!replay && !dedup_.first(src, dst, env.type, *ep)) return false;
    if (env.type == "tf_get_vote" && dst.kind == NodeId::Kind::kServer) {
      const Round& r = rounds_[k];
      const std::uint32_t s = dst.id;
      const auto tp = r.touch_pos.find(s);
      if (tp != r.touch_pos.end()) {
        if (r.done_at[s] != 0) return false;  // stale: round already resolved here
        if (tp->second > gate_upto_[s]) {
          held_[s].push_back(Held{src, dst, env, k});
          return false;
        }
      }
    }
    return true;
  }

  void deliver(std::size_t k, NodeId src, NodeId dst, const Envelope& env,
               engine::Outbox& out, std::optional<bool> verdict) EXCLUDES(mutex_) {
    const bool crashed =
        engine::deliver_checked(*cluster_, *sched_, dst, env, verdict, [&](bool authentic) {
          const bool sequencing = env.type == "gtf_seq" || env.type == "gtf_refuse";
          if (!sequencing) reactors_[k]->on_deliver(src, dst, env, authentic, out);
          if (!sequencing && env.type != "tf_get_vote") return;
          {
            common::MutexLock lock(mutex_);
            if (env.type == "gtf_seq") {
              handle_entry(k, dst, engine::unframe_payload(env.payload), authentic, out);
            } else if (env.type == "gtf_refuse") {
              handle_refuse(k, dst, authentic, out);
            } else {
              note_opened(k, dst.id);
            }
          }
          // The round moved on at dst: its gate may admit a held opening.
          if (dst.kind == NodeId::Kind::kServer) flush_held(dst.id, out);
        });
    if (crashed) {
      common::MutexLock lock(mutex_);
      handle_crash(dst);
    }
  }

  // --- Sequencing --------------------------------------------------------------

  /// Marks round k decided and returns the started, undecided rounds whose
  /// speculative base is now resolved.
  std::vector<std::size_t> mark_decided(std::size_t k) REQUIRES(mutex_) {
    rounds_[k].decided = true;
    std::vector<std::size_t> resolvable;
    if (!speculate_) return resolvable;
    for (const ServerId m : rounds_[k].group.members) advance_decided(m.value);
    for (std::size_t j = 0; j < rounds_.size(); ++j) {
      const Round& q = rounds_[j];
      if (q.started && !q.decided && base_resolved_locked(q)) resolvable.push_back(j);
    }
    return resolvable;
  }

  bool base_resolved_locked(const Round& r) const REQUIRES(mutex_) {
    for (const auto& [s, pos] : r.touch_pos) {
      if (decided_upto_[s] < pos) return false;
    }
    return true;
  }

  void advance_decided(std::uint32_t s) REQUIRES(mutex_) {
    const auto& tr = touch_rounds_[s];
    while (decided_upto_[s] < tr.size()) {
      const Round& q = rounds_[tr[decided_upto_[s]]];
      if (!q.decided) break;
      if (q.applied) {
        if (const crypto::Digest* root = q.block.root_of(ServerId{s})) {
          shard_roots_[s] = *root;
        }
      }
      ++decided_upto_[s];
    }
  }

  /// Submits decided rounds to OrdServ strictly in round order — the barrier
  /// that keeps the sequenced stream (heights, chain, dependency metadata)
  /// schedule-independent even when later groups decide first.
  void advance_sequencing(engine::Outbox& out) REQUIRES(mutex_) {
    while (next_seq_ < rounds_.size()) {
      const Round& r = rounds_[next_seq_];
      if (!r.terminal && !r.refused) {
        if (!r.decided) break;
        sequence_round(next_seq_, out);
      }
      ++next_seq_;
    }
  }

  void sequence_round(std::size_t k, engine::Outbox& out) REQUIRES(mutex_) {
    Round& r = rounds_[k];
    const std::uint64_t height = seq_->submit(r.block, r.group);
    r.entry = seq_->at(height);  // locked accessor: submit() may race
    r.target = n_;
    // The gtf_seq envelope is OrdServ speaking; modeled as trusted
    // infrastructure, it borrows the lowest live server's keypair for
    // transport authentication (the group coordinator may be down by now —
    // the entry's *trust* comes from the inner co-sign, not this envelope).
    const Server* signer = lowest_live_server();
    if (signer == nullptr) {
      throw std::logic_error("no live server to publish sequenced entry from");
    }
    r.entry_env = transport_->seal(signer->keypair(), server_node(signer->id().value),
                                   "gtf_seq",
                                   engine::frame_payload(r.epoch, encode_entry(*r.entry)));
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (i > 0) transport_->count_copy(r.entry_env);
      out.send(r.entry_env.sender, server_node(i), r.entry_env);
    }
  }

  void refuse_round(std::size_t k, std::string fault, engine::Outbox& out)
      REQUIRES(mutex_) {
    Round& r = rounds_[k];
    r.refused = true;
    r.fault = std::move(fault);
    r.target = r.group.members.size();  // only members processed the round
    // Tell the members the round is over (their cohort state, and under
    // speculation their pending stack, must resolve) with the completed
    // block as evidence.
    commit::DecisionMsg msg;
    msg.final_block = r.block;
    const Server* signer = cluster_->is_crashed(r.group.coordinator)
                               ? lowest_live_server()
                               : &cluster_->server(r.group.coordinator);
    if (signer != nullptr) {
      r.refuse_env = transport_->seal(signer->keypair(),
                                      server_node(signer->id().value), "gtf_refuse",
                                      engine::frame_payload(r.epoch, msg.serialize()));
      for (std::size_t i = 0; i < r.group.members.size(); ++i) {
        if (i > 0) transport_->count_copy(r.refuse_env);
        out.send(r.refuse_env.sender, server_node(r.group.members[i].value),
                 r.refuse_env);
      }
    }
    if (r.done_count >= r.target && !r.completed) {
      r.completed = true;
      ++completed_;
    }
  }

  const Server* lowest_live_server() const {
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (!cluster_->is_crashed(ServerId{i})) return &cluster_->server(ServerId{i});
    }
    return nullptr;
  }

  // --- Delivery ----------------------------------------------------------------

  struct PendingEntry {
    std::size_t round;
    SequencedBlock entry;
  };

  /// A sequenced entry at server dst: buffered by height, drained in chain
  /// order against the server's own log.
  void handle_entry(std::size_t k, NodeId dst, BytesView body, bool authentic,
                    engine::Outbox& out) REQUIRES(mutex_) {
    if (!authentic || dst.kind != NodeId::Kind::kServer) return;
    const std::uint32_t s = dst.id;
    const auto entry = decode_entry(body);
    if (!entry.has_value() || rounds_[k].done_at[s] != 0) return;
    auto& pending = pending_entries_[s];
    pending.emplace(entry->block.height, PendingEntry{k, *entry});
    const Server& server = cluster_->server(ServerId{s});
    while (!pending.empty()) {
      auto it = refusals_[s].has_value() ? pending.begin()
                                         : pending.find(server.log().size());
      if (it == pending.end()) break;
      PendingEntry pe = std::move(it->second);
      pending.erase(it);
      process_entry(pe.round, s, pe.entry, out);
    }
  }

  void process_entry(std::size_t k, std::uint32_t s, const SequencedBlock& entry,
                     engine::Outbox& out) REQUIRES(mutex_) {
    Round& r = rounds_[k];
    if (r.done_at[s] != 0) return;
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
        const Server::ApplyResult result =
            server.apply_sequenced(entry.block, cluster_->server_keys());
        if (result == Server::ApplyResult::kApplied) {
          server.record_decision(r.epoch, "gtf_seq", entry.block);
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
    if (speculate_ && rounds_[k].touch_pos.count(s)) {
      engine::TfCommitRound::resolve_speculation(
          *transport_, cluster_->server(ServerId{s}), rounds_[k].epoch, applied,
          [this](std::uint64_t epoch) -> std::optional<NodeId> {
            const auto it = epoch_to_round_.find(epoch);
            if (it == epoch_to_round_.end()) return std::nullopt;
            return reactors_[it->second]->coordinator_node();
          },
          out);
    }
    mark_done(k, s);
    sched_->notify_applied(s, rounds_[k].epoch);
  }

  /// A refusal broadcast at member s: no chain entry, but the round is over.
  void handle_refuse(std::size_t k, NodeId dst, bool authentic, engine::Outbox& out)
      REQUIRES(mutex_) {
    if (!authentic || dst.kind != NodeId::Kind::kServer) return;
    Round& r = rounds_[k];
    const std::uint32_t s = dst.id;
    if (!r.touch_pos.count(s) || r.done_at[s] != 0) return;
    finish_at(k, s, /*applied=*/false, out);
  }

  /// Round k is over at server s: free its window slot and pass the gate.
  /// `propagate` admits newly fitting rounds (recovery reconciles first and
  /// admits once at the end).
  void mark_done(std::size_t k, std::uint32_t s, bool propagate = true) REQUIRES(mutex_) {
    Round& r = rounds_[k];
    if (r.done_at[s] != 0) return;
    r.done_at[s] = 1;
    ++r.done_count;
    if (r.touch_pos.count(s) && r.started && unresolved_[s] > 0) --unresolved_[s];
    if (r.done_count >= r.target && !r.completed) {
      r.completed = true;
      ++completed_;
    }
    advance_gate(s);
    if (propagate) launch_ready();
  }

  // --- Crash / recovery --------------------------------------------------------

  void handle_crash(NodeId node) REQUIRES(mutex_) {
    engine::apply_crash(*cluster_, *sched_, node, /*arm_termination=*/false);
    if (node.kind != NodeId::Kind::kServer || node.id >= n_) return;
    held_[node.id].clear();
    pending_entries_[node.id].clear();
  }

  /// Restores server `node` and replays what its log lacks of the sequenced
  /// stream and refusals. Returns the in-flight rounds whose reactors must
  /// catch it up — in round order, to run after unlocking: the rounds it
  /// coordinates restart, the rounds it is an unfinished member of re-send
  /// their opening (and pending challenge).
  std::vector<engine::TfCommitRound*> handle_recover(NodeId node, engine::Outbox& out)
      REQUIRES(mutex_) {
    std::vector<engine::TfCommitRound*> catch_up;
    const std::uint32_t s = node.id;
    if (node.kind != NodeId::Kind::kServer || s >= n_) return catch_up;
    if (!cluster_->recover_server(ServerId{s})) {
      // Tampered round log: the replacement refuses to restore. Stay dead.
      sched_->crash_node(node);
      return catch_up;
    }
    dedup_.forget_dst(node);
    held_[s].clear();
    pending_entries_[s].clear();
    Server& server = cluster_->server(ServerId{s});

    // The restored log is the truth: rebuild the delivery validator from it
    // and reconcile which rounds this server already processed.
    reset_validator(s);
    const std::uint64_t applied = server.log().size();
    for (std::size_t k = 0; k < rounds_.size(); ++k) {
      Round& r = rounds_[k];
      if (r.terminal) continue;
      if (r.entry.has_value() && r.entry->block.height < applied) {
        mark_done(k, s, /*propagate=*/false);
      }
      if (r.done_at[s] == 0) r.opened_at[s] = 0;
    }
    gate_upto_[s] = 0;
    advance_gate(s);
    std::size_t unresolved = 0;
    for (const std::size_t k : touch_rounds_[s]) {
      const Round& r = rounds_[k];
      if (r.started && r.done_at[s] == 0) ++unresolved;
    }
    unresolved_[s] = unresolved;

    // Catch-up replay, in causal order over the FIFO replay stream:
    // sequenced entries this log is missing (height order), then refusals,
    // then the in-flight rounds (the reactors' replays follow, after
    // unlocking). Replayed openings still pass the touch-order gates;
    // re-sent votes are ordinary sends the receivers dedup.
    for (const Round& r : rounds_) {  // round order is height order
      if (r.entry.has_value() && r.entry->block.height >= applied) {
        out.send_replay(r.entry_env.sender, node, r.entry_env);
      }
    }
    for (const Round& r : rounds_) {
      if (!r.refuse_env.type.empty() && r.touch_pos.count(s) && r.done_at[s] == 0) {
        out.send_replay(r.refuse_env.sender, node, r.refuse_env);
      }
    }
    for (std::size_t k = 0; k < rounds_.size(); ++k) {
      const Round& r = rounds_[k];
      if (r.terminal || !r.started || r.refused) continue;
      if (!r.decided && r.group.coordinator.value == s) {
        // The recovered node coordinates this round: forget its epoch in the
        // at-most-once filter (the re-broadcast opening must reach every
        // member again) and let the reactor restart it deterministically —
        // the same batch, recorded votes, and nonces reproduce the
        // identical block.
        dedup_.forget_epoch(r.epoch);
        catch_up.push_back(reactors_[k].get());
      } else if (r.touch_pos.count(s) && r.done_at[s] == 0) {
        // Replay the opening even for already-decided rounds: the member's
        // wiped cohort state (pending stack, round partials) is rebuilt in
        // touch order, which the gates on the later rounds' openings — and
        // the challenge straggler guard — rely on.
        catch_up.push_back(reactors_[k].get());
      }
    }
    launch_ready();
    return catch_up;
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

  // --- State -------------------------------------------------------------------

  Cluster* cluster_;           // confined(ctor): immutable after construction
  Transport* transport_;       // confined(ctor): immutable after construction
  Sequencer* seq_;             // confined(ctor): immutable after construction
  engine::Scheduler* sched_;   // confined(ctor): immutable after construction
  std::uint32_t n_;            // confined(ctor): immutable after construction
  std::size_t depth_;          // confined(ctor): immutable after construction
  bool speculate_;             // confined(ctor): immutable after construction

  /// One reactor per round (null for rounds refused at admission). The
  /// vector never changes after construction; the reactors synchronize by
  /// their own per-node contract.
  std::vector<std::unique_ptr<engine::TfCommitRound>> reactors_;  // confined(ctor)
  std::unordered_map<std::uint64_t, std::size_t> epoch_to_round_;  // confined(ctor)

  mutable common::Mutex mutex_;
  std::vector<Round> rounds_ GUARDED_BY(mutex_);
  engine::Dedup dedup_ GUARDED_BY(mutex_);

  /// Per server: rounds touching it, in round (= admission) order.
  std::vector<std::vector<std::size_t>> touch_rounds_ GUARDED_BY(mutex_);
  /// Per server: leading count of touch rounds that passed the opening gate.
  std::vector<std::size_t> gate_upto_ GUARDED_BY(mutex_);
  /// Per server: leading count of touch rounds already admitted (started).
  /// Admission must respect per-server touch order: if a later round could
  /// claim a member's depth window before an earlier toucher launched, the
  /// window (which only frees on completion) and the opening gate (which
  /// waits for the earlier round) would deadlock against each other.
  std::vector<std::size_t> started_upto_ GUARDED_BY(mutex_);
  /// Per server: started-but-unresolved touching rounds (the depth window).
  std::vector<std::size_t> unresolved_ GUARDED_BY(mutex_);
  /// Per server: leading count of decided touch rounds (speculation truth).
  std::vector<std::size_t> decided_upto_ GUARDED_BY(mutex_);
  /// Per server: the decided chain's last co-signed root of its shard.
  std::vector<std::optional<crypto::Digest>> shard_roots_ GUARDED_BY(mutex_);

  std::vector<std::vector<Held>> held_ GUARDED_BY(mutex_);  ///< gated openings
  std::vector<std::map<std::uint64_t, PendingEntry>> pending_entries_
      GUARDED_BY(mutex_);  ///< per server
  std::vector<StreamValidator> validators_ GUARDED_BY(mutex_);  ///< per server
  std::vector<std::optional<DeliveryRefusal>> refusals_
      GUARDED_BY(mutex_);  ///< per server

  /// Rounds admitted under the lock, started by drain_starts() after it is
  /// released (a post may execute inline and re-enter dispatch).
  std::vector<std::size_t> pending_starts_ GUARDED_BY(mutex_);

  std::size_t next_seq_ GUARDED_BY(mutex_){0};  ///< next round to submit
  std::size_t completed_ GUARDED_BY(mutex_){0};
  Clock::time_point start_wall_;  // confined(driver): begin()/collect() only
};

}  // namespace

GroupRunResult run_group_rounds(Cluster& cluster, Sequencer& sequencer,
                                std::vector<std::vector<commit::SignedEndTxn>> batches,
                                engine::Scheduler& sched) {
  GroupEngine eng(cluster, sequencer, std::move(batches), sched);
  eng.begin();
  sched.run(eng);
  return eng.collect();
}

}  // namespace fides::ordserv

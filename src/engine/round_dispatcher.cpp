#include "engine/round_dispatcher.hpp"

#include <algorithm>
#include <stdexcept>

namespace fides::engine {

namespace {

/// Opening messages start a round at a cohort; they are the only messages
/// that can causally overtake an earlier round's end, so they are the only
/// ones the touch-order gate holds.
bool opens_round(const std::string& type) {
  return type == "tf_get_vote" || type == "2pc_prepare";
}

}  // namespace

RoundDispatcher::RoundDispatcher(Cluster& cluster, Scheduler& sched, std::size_t depth,
                                 bool speculate)
    : cluster_(&cluster),
      sched_(&sched),
      n_(cluster.num_servers()),
      depth_(depth),
      speculate_(speculate),
      shard_roots_(n_),
      touch_rounds_(n_),
      gate_upto_(n_, 0),
      started_upto_(n_, 0),
      unresolved_(n_, 0),
      decided_upto_(n_, 0),
      held_(n_) {}

void RoundDispatcher::add_round(std::unique_ptr<RoundReactor> reactor) {
  common::MutexLock lock(mutex_);
  const std::size_t k = rounds_.size();
  Round r;
  r.pos.assign(n_, kNotMember);
  if (reactor == nullptr) {
    r.decided = r.completed = true;
    ++completed_;
  } else {
    epoch_to_round_.emplace(reactor->epoch(), k);
    r.done_at.assign(n_, 0);
    r.opened_at.assign(n_, 0);
    r.target = n_;  // every server processes a round's end
    for (const ServerId m : reactor->placement().members) {
      r.pos[m.value] = touch_rounds_[m.value].size();
      touch_rounds_[m.value].push_back(k);
    }
  }
  rounds_.push_back(std::move(r));
  reactors_.push_back(std::move(reactor));
}

void RoundDispatcher::begin() {
  t0_ = Clock::now();
  {
    common::MutexLock lock(mutex_);
    admit_locked();
  }
  drain_starts();
}

void RoundDispatcher::run() {
  // Event-loop schedulers that wait on remote processes (sockets) cannot
  // rely on quiescence; they poll this predicate to know when every round
  // completed. Quiescence-driven schedulers ignore it.
  sched_->set_completion([this] {
    common::MutexLock lock(mutex_);
    return completed_ == rounds_.size();
  });
  begin();
  sched_->run(*this);
}

RoundMetrics RoundDispatcher::round_metrics(std::size_t k) {
  common::MutexLock lock(mutex_);
  const Round& r = rounds_[k];
  RoundReactor& reactor = *reactors_[k];
  reactor.finalize();
  RoundMetrics m = reactor.metrics();
  m.threads_used = sched_->concurrency();
  const Clock::time_point wall_end = r.completed ? r.wall_end : Clock::now();
  m.measured_latency_us =
      std::chrono::duration<double, std::micro>(wall_end - r.wall_start).count();
  return m;
}

void RoundDispatcher::require_complete_locked() const {
  for (std::size_t k = 0; k < rounds_.size(); ++k) {
    const Round& r = rounds_[k];
    if (r.completed) continue;
    const RoundReactor& reactor = *reactors_[k];
    std::string members;
    for (const ServerId m : reactor.placement().members) {
      members += (members.empty() ? "S" : ",S") + std::to_string(m.value);
    }
    throw std::logic_error(
        "round dispatcher stalled: round " + std::to_string(k) + " of " +
        std::to_string(rounds_.size()) + " (members " + members + " led by S" +
        std::to_string(reactor.placement().coordinator.value) + "; " + reactor.progress() +
        ") saw " + std::to_string(r.done_count) + "/" + std::to_string(r.target) +
        " completions at quiescence");
  }
}

// --- Routing -------------------------------------------------------------------

void RoundDispatcher::dispatch_batch(std::span<const Delivery> batch, NodeId dst,
                                     Outbox& out) {
  dispatch_inbox_batch(*cluster_, batch, dst,
                       [&](const Delivery& d, std::optional<bool> verdict) {
                         dispatch_impl(d.src, dst, *d.env, out, /*replay=*/false, verdict);
                       });
}

void RoundDispatcher::dispatch_impl(NodeId src, NodeId dst, const Envelope& env,
                                    Outbox& out, bool replay, std::optional<bool> verdict) {
  std::size_t k = 0;
  bool deliverable = false;
  {
    common::MutexLock lock(mutex_);
    deliverable = route_locked(src, dst, env, replay, k);
  }
  if (deliverable) deliver(k, src, dst, env, out, verdict);
  drain_starts();  // ends processed inside the handler may admit new rounds
}

bool RoundDispatcher::route_locked(NodeId src, NodeId dst, const Envelope& env, bool replay,
                                   std::size_t& k) {
  const auto epoch = peek_epoch(env.payload);
  if (!epoch.has_value()) return false;  // not an engine frame
  const auto it = epoch_to_round_.find(*epoch);
  if (it == epoch_to_round_.end()) return false;  // stale epoch from another run
  k = it->second;
  // Replay deliveries are the recovery catch-up stream: deliberate re-sends
  // of tuples the filter has usually seen, so they are never dropped. A
  // chained round records them (a further normal copy is a duplicate); an
  // unchained round's replayed entry, refusal or opening leaves the filter
  // untouched, so a copy still in flight is processed again, idempotently.
  const bool record = !replay || !reactors_[k]->placement().unchained;
  if (record && !dedup_.first(src, dst, env.type, *epoch) && !replay) return false;
  Round& r = rounds_[k];
  // Traffic for round k proves its coordinator — possibly in another
  // process — started it; recovery needs the flag to know which rounds live.
  r.started = true;
  if (dst.kind != NodeId::Kind::kServer) return true;
  const std::uint32_t s = dst.id;
  if (opens_round(env.type) && r.pos[s] != kNotMember) {
    // The round is already over at this server (a terminated round, or
    // recovery replay): a late opening must not rebuild its cohort state.
    if (r.done_at[s] != 0) return false;
    if (r.pos[s] > gate_upto_[s]) {
      held_[s].push_back(Held{src, dst, env, k});
      return false;
    }
  }
  return accept_locked(k, src, dst, env);
}

void RoundDispatcher::deliver(std::size_t k, NodeId src, NodeId dst, const Envelope& env,
                              Outbox& out, std::optional<bool> verdict) {
  const bool crashed = deliver_checked(*cluster_, *sched_, dst, env, verdict, [&](bool authentic) {
    const bool own = deliver_own(k, dst, env, authentic, out);
    if (!own) reactors_[k]->on_deliver(src, dst, env, authentic, out);
    const bool opening = opens_round(env.type);
    if ((!own && !opening) || dst.kind != NodeId::Kind::kServer) return;
    if (opening) {
      common::MutexLock lock(mutex_);
      note_opened_locked(k, dst.id);
    }
    // The round moved on at dst: its gate may admit a held opening.
    flush_held(dst.id, out);
  });
  if (crashed) handle_crash(dst);
}

// --- The opening gate ----------------------------------------------------------

void RoundDispatcher::advance_gate(std::uint32_t s) {
  const auto& tr = touch_rounds_[s];
  while (gate_upto_[s] < tr.size()) {
    const Round& r = rounds_[tr[gate_upto_[s]]];
    if (r.done_at[s] == 0 && !(speculate_ && r.opened_at[s] != 0)) break;
    ++gate_upto_[s];
  }
}

void RoundDispatcher::note_opened_locked(std::size_t k, std::uint32_t s) {
  Round& r = rounds_[k];
  if (!speculate_ || r.pos[s] == kNotMember || r.opened_at[s] != 0) return;
  r.opened_at[s] = 1;
  advance_gate(s);
}

void RoundDispatcher::flush_held(std::uint32_t s, Outbox& out) {
  for (;;) {
    std::optional<Held> next;
    {
      common::MutexLock lock(mutex_);
      // The queue is scanned, not just its head: a reordering network can
      // enqueue round k+2 ahead of k+1.
      auto& held = held_[s];
      for (auto it = held.begin(); it != held.end();) {
        const Round& r = rounds_[it->round];
        if (r.done_at[s] != 0) {
          it = held.erase(it);  // the round ended here while its opening waited
        } else if (r.pos[s] <= gate_upto_[s]) {
          next = std::move(*it);
          held.erase(it);
          break;
        } else {
          ++it;
        }
      }
    }
    if (!next.has_value()) return;
    deliver(next->round, next->src, next->dst, next->env, out);
  }
}

// --- Admission and completion --------------------------------------------------

void RoundDispatcher::admit_locked() {
  while (first_unlaunched_ < rounds_.size() &&
         (rounds_[first_unlaunched_].launched || reactors_[first_unlaunched_] == nullptr)) {
    ++first_unlaunched_;
  }
  // Every unlaunched round is considered, not just the next: a
  // depth-limited group must not stall a disjoint group behind it.
  for (std::size_t k = first_unlaunched_; k < rounds_.size(); ++k) {
    Round& r = rounds_[k];
    const RoundReactor* reactor = reactors_[k].get();
    if (r.launched || reactor == nullptr) continue;
    // A dead coordinator launches nothing; admission resumes with recovery.
    if (cluster_->is_crashed(reactor->placement().coordinator)) continue;
    const auto& members = reactor->placement().members;
    const bool fits = std::all_of(members.begin(), members.end(), [&](ServerId m) {
      return unresolved_[m.value] < depth_ && r.pos[m.value] <= started_upto_[m.value];
    });
    if (!fits || !may_launch_locked(k)) continue;
    r.launched = r.started = true;
    for (const ServerId m : members) {
      ++unresolved_[m.value];
      const auto& tr = touch_rounds_[m.value];
      std::size_t& upto = started_upto_[m.value];
      while (upto < tr.size() && rounds_[tr[upto]].launched) ++upto;
    }
    pending_starts_.push_back(k);
  }
}

void RoundDispatcher::drain_starts() {
  for (;;) {
    std::vector<std::size_t> starts;
    {
      common::MutexLock lock(mutex_);
      starts.swap(pending_starts_);
    }
    if (starts.empty()) return;
    for (const std::size_t k : starts) {
      RoundReactor* reactor = reactors_[k].get();
      // start() reads the coordinator's log head, which only the
      // coordinator's own handlers mutate: run it on that context.
      sched_->post(reactor->coordinator_node(), [this, k, reactor] {
        {
          common::MutexLock lock(mutex_);
          rounds_[k].wall_start = Clock::now();
        }
        reactor->start(sched_->outbox());
      });
    }
  }
}

bool RoundDispatcher::mark_done_locked(std::size_t k, std::uint32_t s, bool admit) {
  Round& r = rounds_[k];
  // Duplicates — a re-delivered kPeerApplied frame, or recovery
  // reconciliation racing the ACK it reconciles — are absorbed.
  if (r.done_at[s] != 0) return false;
  r.done_at[s] = 1;
  if (r.launched && r.pos[s] != kNotMember && unresolved_[s] > 0) --unresolved_[s];
  ++r.done_count;
  complete_locked(r);
  advance_gate(s);
  if (admit) admit_locked();
  return true;
}

void RoundDispatcher::retarget_locked(std::size_t k, std::size_t target) {
  rounds_[k].target = target;
  complete_locked(rounds_[k]);
}

void RoundDispatcher::complete_locked(Round& r) {
  if (r.completed || r.done_count < r.target) return;
  r.completed = true;
  r.wall_end = Clock::now();
  ++completed_;
}

// --- The decided prefix --------------------------------------------------------

void RoundDispatcher::on_outcome(std::uint64_t epoch, const ledger::Block& block,
                                 bool appended, Outbox& out) {
  const std::size_t k = epoch_to_round_.at(epoch);
  std::vector<std::size_t> resolved;
  bool terminate = false;
  {
    common::MutexLock lock(mutex_);
    Round& r = rounds_[k];
    if (r.decided) return;  // a restarted round re-decides deterministically
    r.decided = true;
    r.applied = appended && block.committed();
    on_decided_locked(k, block, appended, out);
    if (speculate_) {
      if (r.applied) r.roots = block.roots;
      for (const ServerId m : reactors_[k]->placement().members) advance_decided(m.value);
      for (std::size_t j = 0; j < rounds_.size(); ++j) {
        const Round& q = rounds_[j];
        if (q.started && !q.decided && base_resolved_locked(j)) resolved.push_back(j);
      }
      terminate = terminating_locked();
    }
  }
  // Outside the lock: every started round still deciding whose base is
  // resolved (re)validates its buffered votes (and may fire its challenge)
  // on its coordinator's context — or, mid-termination, the survivors take
  // it over now that its base is pinned. A chained round's coordinator is
  // the one whose handler decided round k, so it resumes inline; an
  // unchained round may belong to another group coordinator and is posted.
  for (const std::size_t j : resolved) {
    RoundReactor* next = reactors_[j].get();
    if (terminate) {
      next->begin_termination(out);
    } else if (!next->placement().unchained) {
      next->on_base_resolved(out);
    } else {
      sched_->post(next->coordinator_node(),
                   [this, next] { next->on_base_resolved(sched_->outbox()); });
    }
  }
  after_outcome(out);
}

void RoundDispatcher::advance_decided(std::uint32_t s) {
  const auto& tr = touch_rounds_[s];
  while (decided_upto_[s] < tr.size()) {
    const Round& q = rounds_[tr[decided_upto_[s]]];
    if (!q.decided) break;
    for (const ledger::ShardRoot& root : q.roots) {
      if (root.server.value == s) shard_roots_[s] = root.root;
    }
    ++decided_upto_[s];
  }
}

bool RoundDispatcher::base_resolved_locked(std::size_t k) const {
  for (const ServerId m : reactors_[k]->placement().members) {
    if (decided_upto_[m.value] < rounds_[k].pos[m.value]) return false;
  }
  return true;
}

bool RoundDispatcher::base_resolved(std::uint64_t epoch) const {
  common::MutexLock lock(mutex_);
  return base_resolved_locked(epoch_to_round_.at(epoch));
}

std::optional<bool> RoundDispatcher::applied(std::uint64_t epoch) const {
  const auto it = epoch_to_round_.find(epoch);
  if (it == epoch_to_round_.end()) return std::nullopt;
  common::MutexLock lock(mutex_);
  const Round& r = rounds_[it->second];
  if (!r.decided) return std::nullopt;
  return r.applied;
}

const crypto::Digest* RoundDispatcher::shard_root(std::uint32_t server) const {
  // Called on a coordinator's context while outcomes land on others: lock.
  // The pointer stays valid: the vector is sized in the ctor and an engaged
  // optional's payload address never changes on assignment.
  common::MutexLock lock(mutex_);
  if (server >= n_ || !shard_roots_[server].has_value()) return nullptr;
  return &*shard_roots_[server];
}

// --- Crash / recovery ----------------------------------------------------------

void RoundDispatcher::on_control(const ControlEvent& ev, Outbox& out) {
  switch (ev.kind) {
    case ControlEvent::Kind::kCrash:
      handle_crash(ev.node);
      break;
    case ControlEvent::Kind::kRecover:
      handle_recover(ev.node, out);
      break;
    case ControlEvent::Kind::kCoordinatorTimeout:
    case ControlEvent::Kind::kTimer:
    case ControlEvent::Kind::kPeerApplied:
      on_other_control(ev, out);
      break;
  }
  drain_starts();  // recovery re-admits rounds
}

void RoundDispatcher::handle_crash(NodeId node) {
  // Engine-side bookkeeping; dropping deliveries is the scheduler's side.
  cluster_->crash_server(ServerId{node.id});
  const double timeout = cluster_->config().termination_timeout_us;
  if (terminates() && node.id == cluster_->coordinator_id().value && timeout > 0) {
    sched_->schedule_failure_probe(node, timeout);
  }
  common::MutexLock lock(mutex_);
  if (node.kind != NodeId::Kind::kServer || node.id >= n_) return;
  held_[node.id].clear();
  on_crash_locked(node.id);
}

void RoundDispatcher::handle_recover(NodeId node, Outbox& out) {
  const std::uint32_t s = node.id;
  if (node.kind != NodeId::Kind::kServer || s >= n_) return;
  if (!cluster_->recover_server(ServerId{s})) {
    // The durable log failed its integrity check: the server must not
    // rejoin. Mark it dead on the substrate again (no recovery scheduled);
    // the run surfaces the stall.
    sched_->crash_node(node);
    return;
  }
  std::vector<RoundReactor*> catch_up;
  {
    common::MutexLock lock(mutex_);
    dedup_.forget_dst(node);
    held_[s].clear();
    on_recover_locked(s, out);
    // The pending-opening stack died with the node: re-gate from what the
    // log proves, so replayed openings are re-processed in touch order.
    for (Round& r : rounds_) {
      if (!r.done_at.empty() && r.done_at[s] == 0) r.opened_at[s] = 0;
    }
    gate_upto_[s] = 0;
    advance_gate(s);
    for (std::size_t k = 0; k < rounds_.size(); ++k) {
      const Round& r = rounds_[k];
      RoundReactor* reactor = reactors_[k].get();
      if (reactor == nullptr || !r.started || r.completed) continue;
      if (reactor->placement().coordinator.value == s && !r.decided) {
        // The recovered coordinator restarts this round and re-asks
        // everyone: let the re-asks through the at-most-once filter.
        dedup_.forget_epoch(reactor->epoch());
      }
      // Replay even decided rounds' openings: the member's wiped cohort
      // state is rebuilt in touch order, which later openings' gates rely on.
      if (r.pos[s] != kNotMember && r.done_at[s] == 0 && !r.refused) {
        catch_up.push_back(reactor);
      }
    }
    admit_locked();
  }
  for (RoundReactor* r : catch_up) r->on_recover(s, out);
}

}  // namespace fides::engine

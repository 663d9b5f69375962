#include "sim/simnet.hpp"

#include <algorithm>
#include <bit>

#include "common/serde.hpp"

namespace fides::sim {

namespace {

bool contains(const std::vector<std::uint32_t>& ids, NodeId n) {
  return n.kind == NodeId::Kind::kServer &&
         std::find(ids.begin(), ids.end(), n.id) != ids.end();
}

const Envelope& empty_envelope() {
  static const Envelope env{};
  return env;
}

}  // namespace

SimNet::SimNet(SimNetConfig config)
    : config_(std::move(config)), rng_(config_.seed) {}

const LinkFaults& SimNet::link_for(NodeId src, NodeId dst) const {
  if (src.kind == NodeId::Kind::kServer && dst.kind == NodeId::Kind::kServer) {
    for (const LinkOverride& o : config_.link_overrides) {
      if (o.src == src.id && o.dst == dst.id) return o.faults;
    }
  }
  return config_.link;
}

double SimNet::draw_delay(const LinkFaults& lf) {
  const double lo = lf.min_delay_us;
  const double hi = std::max(lf.max_delay_us, lo);
  double d = lo + rng_.uniform01() * (hi - lo);
  if (lf.reorder_prob > 0 && rng_.uniform01() < lf.reorder_prob) {
    d += rng_.uniform01() * lf.reorder_extra_us;
  }
  return d;
}

double SimNet::release_time(NodeId src, NodeId dst, double t, bool& was_held) const {
  // Fixpoint: healing one window may land inside another, in any config
  // order — keep bumping until no active window separates src from dst.
  // Terminates because release only ever advances to one of finitely many
  // heal times.
  double release = t;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Partition& p : config_.partitions) {
      if (release >= p.start_us && release < p.heal_us &&
          contains(p.island, src) != contains(p.island, dst)) {
        release = p.heal_us;
        was_held = true;
        changed = true;
      }
    }
  }
  return release;
}

void SimNet::fold_event(const char* tag, double at_us, NodeId src, NodeId dst,
                        const Envelope& env, const crypto::Digest& payload_digest) {
  Writer w;
  w.raw(trace_hash_.view());
  w.str(tag);
  w.u64(std::bit_cast<std::uint64_t>(at_us));
  w.u8(static_cast<std::uint8_t>(src.kind));
  w.u32(src.id);
  w.u8(static_cast<std::uint8_t>(dst.kind));
  w.u32(dst.id);
  w.str(env.type);
  w.raw(payload_digest.view());
  trace_hash_ = crypto::sha256(w.data());
}

void SimNet::fold_node_event(const char* tag, double at_us, NodeId node) {
  fold_event(tag, at_us, node, node, empty_envelope(), crypto::Digest{});
}

void SimNet::schedule(double at_us, NodeId src, NodeId dst, Envelope env,
                      const crypto::Digest& payload_digest, bool duplicate,
                      bool replay) {
  Event ev;
  ev.at_us = at_us;
  ev.seq = next_seq_++;
  ev.src = src;
  ev.dst = dst;
  ev.env = std::move(env);
  ev.payload_digest = payload_digest;
  ev.duplicate = duplicate;
  ev.replay = replay;
  queue_.push(std::move(ev));
}

void SimNet::schedule_control(engine::ControlEvent::Kind kind, NodeId node,
                              double at_us, std::uint64_t tag) {
  Event ev;
  ev.kind = Event::Kind::kControl;
  ev.at_us = at_us;
  ev.seq = next_seq_++;
  ev.ctrl = engine::ControlEvent{kind, node, tag};
  queue_.push(std::move(ev));
}

void SimNet::schedule_crash(NodeId node, double at_us) {
  schedule_control(engine::ControlEvent::Kind::kCrash, node, at_us);
}

void SimNet::schedule_recover(NodeId node, double at_us) {
  schedule_control(engine::ControlEvent::Kind::kRecover, node, at_us);
}

void SimNet::schedule_timeout(NodeId node, double at_us) {
  schedule_control(engine::ControlEvent::Kind::kCoordinatorTimeout, node, at_us);
}

void SimNet::schedule_timer(NodeId node, double at_us, std::uint64_t tag) {
  schedule_control(engine::ControlEvent::Kind::kTimer, node, at_us, tag);
}

void SimNet::crash_now(NodeId node) {
  fold_node_event("CRASH", now_us_, node);
  down_.insert(node);
}

void SimNet::send(NodeId src, NodeId dst, Envelope env) {
  ++stats_.sent;
  const crypto::Digest payload_digest = crypto::sha256(env.payload);
  fold_event("SEND", now_us_, src, dst, env, payload_digest);

  if (src == dst) {
    // Loopback: ideal link, no RNG draws (keeps the random stream — and
    // hence the schedule of real links — independent of self-traffic).
    schedule(now_us_ + config_.self_delay_us, src, dst, std::move(env),
             payload_digest, false, false);
    return;
  }

  const LinkFaults& lf = link_for(src, dst);

  // Loss with retransmission: each dropped copy costs one timeout before
  // the next attempt; the final attempt always goes through, so the round
  // terminates deterministically.
  double t = now_us_;
  for (std::uint32_t attempt = 1; attempt < config_.max_attempts; ++attempt) {
    if (lf.drop_prob <= 0 || rng_.uniform01() >= lf.drop_prob) break;
    ++stats_.dropped;
    fold_event("DROP", t, src, dst, env, payload_digest);
    t += config_.retransmit_timeout_us;
  }

  bool held = false;
  const double delay = draw_delay(lf);
  double deliver_at = release_time(src, dst, t, held) + delay;
  if (held) {
    ++stats_.held;
    fold_event("HOLD", deliver_at, src, dst, env, payload_digest);
  }

  const bool dup = lf.dup_prob > 0 && rng_.uniform01() < lf.dup_prob;
  if (dup) {
    ++stats_.duplicated;
    bool dup_held = false;
    const double dup_at = release_time(src, dst, t, dup_held) + draw_delay(lf);
    if (dup_held) {
      ++stats_.held;
      fold_event("HOLD", dup_at, src, dst, env, payload_digest);
    }
    fold_event("DUP", dup_at, src, dst, env, payload_digest);
    schedule(dup_at, src, dst, env, payload_digest, true, false);
  }
  schedule(deliver_at, src, dst, std::move(env), payload_digest, false, false);
}

void SimNet::send_sequenced(NodeId src, NodeId dst, Envelope env) {
  ++stats_.sent;
  const crypto::Digest payload_digest = crypto::sha256(env.payload);
  fold_event("RESEND", now_us_, src, dst, env, payload_digest);
  // Fixed delay, no fault draws; equal timestamps resolve by scheduling
  // order, so the catch-up stream arrives strictly FIFO.
  schedule(now_us_ + config_.self_delay_us, src, dst, std::move(env), payload_digest,
           false, true);
}

void SimNet::run(const DeliverFn& on_deliver, const ControlFn& on_control) {
  while (!queue_.empty()) {
    // Copy out (priority_queue::top is const): envelopes in round traffic
    // are small relative to the crypto work they trigger.
    Event ev = queue_.top();
    queue_.pop();
    now_us_ = std::max(now_us_, ev.at_us);

    if (ev.kind == Event::Kind::kControl) {
      switch (ev.ctrl.kind) {
        case engine::ControlEvent::Kind::kCrash:
          fold_node_event("CRASH", ev.at_us, ev.ctrl.node);
          down_.insert(ev.ctrl.node);
          break;
        case engine::ControlEvent::Kind::kRecover:
          fold_node_event("RECOVER", ev.at_us, ev.ctrl.node);
          down_.erase(ev.ctrl.node);
          break;
        case engine::ControlEvent::Kind::kCoordinatorTimeout:
          fold_node_event("TIMEOUT", ev.at_us, ev.ctrl.node);
          break;
        case engine::ControlEvent::Kind::kTimer: {
          // The tag folds too: two schedules that fire different timers at
          // the same instant must hash differently.
          Writer w;
          w.raw(trace_hash_.view());
          w.str("TIMER");
          w.u64(std::bit_cast<std::uint64_t>(ev.at_us));
          w.u8(static_cast<std::uint8_t>(ev.ctrl.node.kind));
          w.u32(ev.ctrl.node.id);
          w.u64(ev.ctrl.tag);
          trace_hash_ = crypto::sha256(w.data());
          break;
        }
        case engine::ControlEvent::Kind::kPeerApplied:
          // A socket-plane report from a remote process; SimNet hosts every
          // node itself and never schedules one.
          break;
      }
      if (on_control) on_control(ev.ctrl);
      continue;
    }

    if (down_.count(ev.dst) != 0) {
      // The addressee is dead at delivery time: the copy is gone. The
      // recovery protocol — not the network — re-supplies what was missed.
      ++stats_.lost_down;
      fold_event("LOST", ev.at_us, ev.src, ev.dst, ev.env, ev.payload_digest);
      continue;
    }

    ++stats_.delivered;
    fold_event("DELIVER", ev.at_us, ev.src, ev.dst, ev.env, ev.payload_digest);
    on_deliver(ev.src, ev.dst, ev.env, ev.replay);
  }
}

}  // namespace fides::sim

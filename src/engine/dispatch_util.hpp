// Dispatcher-side plumbing shared by every engine driver — the global commit
// pipeline (pipeline.cpp), the checkpoint dispatcher, and the group-commit
// engine (ordserv/group_engine.cpp): receiver-side deduplication, inbox
// batch verification, and the crash-point hooks that turn a configured
// CrashFault into scheduler events.
#pragma once

#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "engine/scheduler.hpp"
#include "fides/cluster.hpp"

namespace fides::engine {

/// Receiver-side at-most-once filter over (sender, receiver, type, epoch):
/// the first copy of a logical message is processed, later copies (SimNet
/// duplicates, retransmissions that crossed their original) are dropped
/// before authentication — the idempotence a real node needs under
/// at-least-once delivery. A crash erases the receiver's filter state with
/// the rest of its memory (forget_dst); a recovered coordinator's restarted
/// round re-asks everyone, so its epochs are forgotten wholesale
/// (forget_epoch).
class Dedup {
 public:
  bool first(NodeId src, NodeId dst, const std::string& type, std::uint64_t epoch) {
    return seen_.emplace(src, dst, type, epoch).second;
  }

  void forget_dst(NodeId dst) {
    for (auto it = seen_.begin(); it != seen_.end();) {
      if (std::get<1>(*it) == dst) {
        it = seen_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void forget_epoch(std::uint64_t epoch) {
    for (auto it = seen_.begin(); it != seen_.end();) {
      if (std::get<3>(*it) == epoch) {
        it = seen_.erase(it);
      } else {
        ++it;
      }
    }
  }

 private:
  std::set<std::tuple<NodeId, NodeId, std::string, std::uint64_t>> seen_;
};

/// A coordinator's vote/response inbox: no dispatcher gates or holds these
/// types, so their open() verdicts may be computed ahead of dispatch.
inline bool batchable_inbox(const std::string& type) {
  return type == "tf_response" || type == "2pc_vote" || type.rfind("tf_vote", 0) == 0;
}

/// A scheduler drained one destination's queue: verify its batchable inbox
/// as one RLC aggregate over the cluster pool, then hand every delivery, in
/// order, to `dispatch_one(delivery, verdict)` — `verdict` is the cached
/// open() result, or nullopt when the item must verify itself. Only the
/// signature checks move; order, gating, and dedup are untouched.
template <typename DispatchOne>
void dispatch_inbox_batch(Cluster& cluster, std::span<const Dispatcher::Delivery> batch,
                          NodeId dst, DispatchOne&& dispatch_one) {
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  Transport& transport = cluster.transport();
  const bool dst_crashed =
      dst.kind == NodeId::Kind::kServer && cluster.is_crashed(ServerId{dst.id});
  std::vector<std::size_t> slot(batch.size(), kNoSlot);
  std::vector<const Envelope*> envs;
  if (transport.batch_verify() && !dst_crashed) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batchable_inbox(batch[i].env->type)) {
        slot[i] = envs.size();
        envs.push_back(batch[i].env);
      }
    }
  }
  std::vector<unsigned char> verdicts;
  if (envs.size() >= 2) verdicts = transport.open_batch(envs, &cluster.pool());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const bool cached = !verdicts.empty() && slot[i] != kNoSlot;
    dispatch_one(batch[i], cached ? std::optional<bool>(verdicts[slot[i]] != 0)
                                  : std::nullopt);
  }
}

/// Transition-triggered crash points, shared by every dispatcher: after
/// `dst` finished processing a delivery of `type`, fell a configured crash
/// on it. Returns true if the node died.
inline bool poll_transition_crash(Cluster& cluster, Scheduler& sched, NodeId dst,
                                  const std::string& type) {
  if (!sched.supports_crashes() || dst.kind != NodeId::Kind::kServer) return false;
  const auto cf = cluster.poll_crash_point(dst.id, type);
  if (!cf.has_value()) return false;
  sched.crash_node(dst);
  sched.schedule_recover(dst, cf->downtime_us);
  return true;
}

/// One delivery across the trust boundary, shared by every dispatcher: a
/// dead destination drops it (recovery re-supplies what still matters);
/// otherwise `handle(authentic)` runs, with malformed bytes (DecodeError)
/// dropped as if lost on the wire. Returns true when a transition crash
/// point felled `dst` afterwards; the caller runs its crash bookkeeping.
template <typename Handle>
bool deliver_checked(Cluster& cluster, Scheduler& sched, NodeId dst, const Envelope& env,
                     std::optional<bool> verdict, Handle&& handle) {
  if (dst.kind == NodeId::Kind::kServer && cluster.is_crashed(ServerId{dst.id})) {
    return false;
  }
  const bool authentic =
      verdict.has_value() ? *verdict : cluster.transport().open(env, env.type);
  try {
    handle(authentic);
  } catch (const DecodeError&) {
    return false;
  }
  return poll_transition_crash(cluster, sched, dst, env.type);
}

/// Engine-side crash bookkeeping (the substrate side — dropping deliveries
/// — is the scheduler's). Arms the termination timer when the *global*
/// coordinator died; group rounds have no termination story yet, so the
/// group engine passes arm_termination = false.
inline void apply_crash(Cluster& cluster, Scheduler& sched, NodeId node,
                        bool arm_termination = true) {
  cluster.crash_server(ServerId{node.id});
  const double timeout = cluster.config().termination_timeout_us;
  if (arm_termination && node.id == cluster.coordinator_id().value && timeout > 0) {
    sched.schedule_failure_probe(node, timeout);
  }
}

}  // namespace fides::engine

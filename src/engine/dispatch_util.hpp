// Receiver-side plumbing of the one round dispatcher
// (engine/round_dispatcher.hpp), which runs it the same way under both of
// its placement policies (global rounds and group rounds) and for the
// checkpoint round: the at-most-once filter, inbox batch verification, and
// the trust boundary every delivery crosses, with the crash-point hook that
// turns a configured CrashFault into scheduler events.
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
    std::erase_if(seen_, [&](const auto& t) { return std::get<1>(t) == dst; });
  }

  void forget_epoch(std::uint64_t epoch) {
    std::erase_if(seen_, [&](const auto& t) { return std::get<3>(t) == epoch; });
  }

 private:
  std::set<std::tuple<NodeId, NodeId, std::string, std::uint64_t>> seen_;
};

/// A scheduler drained one destination's queue: verify its batchable inbox
/// as one RLC aggregate over the cluster pool, then hand every delivery, in
/// order, to `dispatch_one(delivery, verdict)` — `verdict` is the cached
/// open() result, or nullopt when the item must verify itself. Only the
/// signature checks move; order, gating, and dedup are untouched. Batchable
/// is a coordinator's vote/response inbox: no placement gates or holds those
/// types, so their verdicts may be computed ahead of dispatch.
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
      const std::string& type = batch[i].env->type;
      if (type == "tf_response" || type == "2pc_vote" || type.rfind("tf_vote", 0) == 0) {
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

/// One delivery across the trust boundary: a dead destination drops it
/// (recovery re-supplies what still matters); otherwise `handle(authentic)`
/// runs, with malformed bytes (DecodeError) dropped as if lost on the wire.
/// Afterwards a transition-triggered crash point may fell `dst` (a
/// configured crash after processing a delivery of this type); returns true
/// when it did, and the caller runs its crash bookkeeping.
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
  if (!sched.supports_crashes() || dst.kind != NodeId::Kind::kServer) return false;
  const auto cf = cluster.poll_crash_point(dst.id, env.type);
  if (!cf.has_value()) return false;
  sched.crash_node(dst);
  sched.schedule_recover(dst, cf->downtime_us);
  return true;
}

}  // namespace fides::engine

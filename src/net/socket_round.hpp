// Coordinator-side entry for a multi-process commit run.
//
// The calling process hosts server 0 (and the clients); every other server
// runs as a fides_serverd process listening on its address. The unmodified
// engine pipeline drives the rounds through a SocketScheduler; when every
// round completes, the coordinator collects each peer's committed-state
// digest (log height, chained head hash, shard Merkle root) and broadcasts
// shutdown. The digests are what the cross-scheduler identity suite
// compares bit-for-bit against in-process and SimNet runs of the same
// batches.
#pragma once

#include "engine/pipeline.hpp"
#include "net/socket_scheduler.hpp"

namespace fides::net {

struct SocketRunResult {
  PipelineResult pipeline;
  /// Digests from the live remote servers, sorted by server id. A peer that
  /// crashed and never rejoined has no entry.
  std::vector<PeerDigest> digests;
};

/// Runs `batches` as commit rounds over sockets. The cluster must be the
/// same deterministic configuration every serverd was started with
/// (identical num_servers/items/protocol/pipeline/speculate/seed and a
/// shared round_log_dir). Throws on deployment errors (unreachable peers)
/// and propagates the round dispatcher's stall error.
SocketRunResult run_commit_rounds_over_sockets(
    Cluster& cluster, Protocol protocol,
    std::vector<std::vector<commit::SignedEndTxn>> batches, const SocketOptions& opts);

}  // namespace fides::net

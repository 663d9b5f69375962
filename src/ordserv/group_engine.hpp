// Engine-routed group commit (§4.6): multi-coordinator rounds as the group
// placement policy of the one round dispatcher (engine/round_dispatcher.hpp);
// global rounds (engine/pipeline.hpp) are the other policy.
//
// Each batch's ServerGroup runs its own TFCommit round — an
// engine::TfCommitRound placed on the group's members with unchained blocks,
// the same reactor global rounds run — under any Scheduler, with no single
// global coordinator. The dispatcher core supplies routing and dedup, the
// touch-order opening gates and depth-window admission (so pipeline_depth
// and speculate compose *independently per server* while overlapping groups
// serialize), completion, the decided prefix, and the crash/recover
// skeleton. The group policy adds only OrdServ's part: per-group epochs,
// refusal at admission and a depth cap of 8, the round-order sequencing
// barrier and gtf_refuse, validated delivery of the sequenced stream
// (gtf_seq, buffered by height), and its replay on recovery.
//
// Votes, CoSi responses, and delivered entries go through the servers'
// durable RoundLogs (vote_once / the CosiWitness / record_decision), so
// recovery replays the sequenced stream plus any in-flight rounds and
// converges on the stream the uncrashed run produces — bit-identical to the
// sequential lock-step reference, GroupCommitRunner (group_commit.hpp).
#pragma once

#include "engine/scheduler.hpp"
#include "ordserv/group_commit.hpp"

namespace fides::ordserv {

/// Result of an engine run over a sequence of group batches.
struct GroupRunResult {
  /// One per batch, in submission order (same shape as the runner's results).
  std::vector<GroupRoundResult> rounds;
  /// Per server: the refusal that halted delivery there, if any.
  std::vector<std::optional<DeliveryRefusal>> delivery_refusals;
  double wall_us{0};
  /// Votes discarded for a mis-speculated base across all rounds. Telemetry:
  /// the count depends on delivery interleaving (streams do not).
  std::size_t spec_revotes{0};
};

/// Runs every batch as a group-local TFCommit round on the engine reactors
/// under `sched`, sequencing valid outcomes through `sequencer` and
/// delivering the hash-chained stream to every server (validated, durable).
/// Throws std::logic_error if the schedule stalls before completion.
GroupRunResult run_group_rounds(Cluster& cluster, Sequencer& sequencer,
                                std::vector<std::vector<commit::SignedEndTxn>> batches,
                                engine::Scheduler& sched);

}  // namespace fides::ordserv

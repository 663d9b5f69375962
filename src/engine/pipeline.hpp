// The global commit pipeline: multi-block TFCommit/2PC rounds over any
// scheduler, as one placement policy of the round dispatcher
// (engine/round_dispatcher.hpp). Group rounds (ordserv/group_engine.hpp) are
// the other; both share its routing and dedup, touch-order opening gates,
// depth-window admission, completion counting, decided prefix, and
// crash/recover skeleton.
//
// A global round runs on every server with the cluster's coordinator and
// extends one hash chain, so touch order is round order:
//
//   * Admission — round k starts once fewer than `depth` rounds are
//     incomplete and, lock-step, once the coordinator has processed round
//     k-1's decision (its log head then names k's prev-hash). depth == 1
//     reproduces the classic lock-step engine exactly.
//   * Gating — a cohort's copy of round k's opening (get_vote / prepare) is
//     held until that cohort processed round k-1's decision, so its OCC
//     validation and hypothetical Merkle root build on the previous block's
//     applied state: the committed ledger is bit-identical at every depth,
//     even when SimNet reorders the opening past the previous decision.
//     Speculating (TFCommit only), openings wait only for the previous
//     opening, and decisions are held to apply in round order instead.
//   * Placement policy on top of the core — the chained decided head behind
//     speculative openings, cohort termination when the coordinator stays
//     dead, the socket plane's kPeerApplied reports and rejoin heights,
//     open-loop admission, and 2PC.
//
// The data dependency above (vote k+1 needs apply k) caps the *effective*
// lock-step overlap at two rounds no matter how large `depth` is: the win is
// the decision/apply tail of round k running concurrently with round k+1's
// assembly and vote phase — across servers on the in-process scheduler,
// across network legs on SimNet.
#pragma once

#include "engine/scheduler.hpp"
#include "fides/cluster.hpp"

namespace fides::engine {

/// Runs one round per batch through `protocol`, pipelined at
/// cluster.config().pipeline_depth. Throws std::logic_error if the
/// scheduler goes quiescent with rounds incomplete; the message names the
/// first incomplete round, its members and coordinator, its completions, and
/// its reactor's phase counts.
PipelineResult run_commit_rounds(Cluster& cluster, Protocol protocol,
                                 std::vector<std::vector<commit::SignedEndTxn>> batches,
                                 Scheduler& sched);

/// Cohort-side serving loop for a multi-process (socket) deployment: builds
/// the same pipeline state machine as run_commit_rounds — identical epoch
/// reservation, gating, dedup — but with empty batches (cohorts validate
/// from delivered wire bytes, never from the coordinator's batch copy) and
/// no completion check: the call returns when the scheduler's run loop
/// stops, e.g. on the coordinator's shutdown frame.
void serve_commit_rounds(Cluster& cluster, Protocol protocol, std::size_t num_rounds,
                         Scheduler& sched);

/// Open-loop variant (simulated network only): clients are SimNet nodes
/// submitting on `txns`' arrival schedule; each submit hops client →
/// affinity server → coordinator over the simulated wire (with per-client
/// retry timers from `model`), round k is admitted only once batch k fully
/// arrived at the coordinator, and decisions travel back to the clients as
/// signed responses. txns[i].round must name the batch containing txn i.
OpenLoopOutcome run_open_loop_rounds(
    Cluster& cluster, Protocol protocol,
    std::vector<std::vector<commit::SignedEndTxn>> batches,
    std::vector<OpenLoopTxn> txns, const sim::ClientModel& model, sim::SimNet& net,
    Scheduler& sched);

/// Runs one checkpoint CoSi round; metrics are populated uniformly with the
/// commit paths (compute, measured wall time, threads).
CheckpointOutcome run_checkpoint_round(Cluster& cluster, Scheduler& sched);

}  // namespace fides::engine

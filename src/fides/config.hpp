// Cluster configuration.
//
// Defaults mirror the paper's evaluation setup (§6): 5 servers, one shard of
// 10000 items per server, 100 transactions per block, a single-datacenter
// network, YCSB-like transactions of 5 operations each.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "sim/sim_config.hpp"
#include "store/shard.hpp"

namespace fides {

/// One scheduled crash/recover cycle of a server (simulated mode). A crash
/// discards every volatile structure on the node — shard, ledger, cohort
/// round state, queued deliveries — leaving only the durable RoundLog;
/// recovery rebuilds the server from that log and rejoins mid-round. Two
/// trigger styles:
///
///   * virtual-time (`at_us` >= 0): the node dies when the SimNet clock
///     reaches at_us — how the fuzzer composes crashes with delay/loss/
///     partition schedules.
///   * transition (`after_type` non-empty): the node dies immediately after
///     it finishes processing its `after_count`-th delivery of that message
///     type — how the crash-point matrix pins a crash to an exact reactor
///     state transition.
///
/// Every crash recovers after `downtime_us` of virtual time; permanent
/// failure (membership change) is out of scope — see ROADMAP.
struct CrashFault {
  std::uint32_t server{0};
  double at_us{-1.0};
  std::string after_type;
  std::uint32_t after_count{1};
  double downtime_us{2000.0};
};

enum class Protocol : std::uint8_t {
  kTwoPhaseCommit,  ///< trusted baseline (§6.1)
  kTfCommit,        ///< the paper's contribution
};

/// Network model for the in-process transport. Two modes:
///
///   * kDirect (default): delivery is a direct function call; the only
///     clock is the wall clock. The `sim` knobs are ignored in this mode.
///   * kSimulated: commit-round and checkpoint traffic is routed through a
///     seeded discrete-event network (sim::SimNet) with per-link delay
///     distributions, drop/retransmit, duplication, reorder, and
///     partition/heal faults. Same seed => byte-identical event trace, and
///     SimNet::now_us() is the protocol's virtual time.
struct NetworkModel {
  sim::NetworkMode mode{sim::NetworkMode::kDirect};
  sim::SimNetConfig sim;
};

struct ClusterConfig {
  std::uint32_t num_servers{5};
  std::uint32_t items_per_shard{10000};
  store::VersioningMode versioning{store::VersioningMode::kSingle};
  std::size_t max_batch_size{100};
  Protocol protocol{Protocol::kTfCommit};
  NetworkModel network;
  std::uint64_t seed{42};
  Bytes initial_value{'0'};

  /// Worker threads for intra-round parallelism: per-cohort phase work
  /// (votes, responses, decision application), batched signature
  /// verification, and Merkle tree builds all fan out across this many
  /// threads. 1 = strictly sequential (bit-identical to the original
  /// single-threaded driver); 0 = one thread per hardware core. Parallel
  /// and sequential runs of the same batch produce identical decisions,
  /// blocks, and ledger state — only wall-clock time changes.
  std::uint32_t num_threads{1};

  /// Commit rounds in flight in the engine pipeline. 1 = lock-step, one
  /// block at a time (bit-identical to the pre-pipelining engine). K > 1
  /// admits block k+1 into its vote phase while block k's decision/apply
  /// tail is still draining at slower servers. Ledger append order stays
  /// sequential and the committed ledger is identical at every depth: a
  /// cohort never votes on block k+1 before applying block k (the engine
  /// gates the opening message on the per-server apply watermark), because
  /// its hypothetical Merkle root must build on the applied state. That
  /// data dependency caps effective overlap at ~2 rounds regardless of K —
  /// unless `speculate` lifts it.
  std::uint32_t pipeline_depth{1};

  /// Speculative voting (TFCommit only): drops the apply watermark gate on
  /// round openings. Round k+1 opens as soon as the depth window allows —
  /// before round k has even decided — with a projected height and no
  /// prev-hash; each cohort computes OCC validation and its hypothetical
  /// Merkle root on top of the *pending* update set of its in-flight
  /// rounds (predicting each block's fate from its own vote), and tags the
  /// vote with the assumed base. The coordinator validates every
  /// assumption against the real decisions before counting a vote: a
  /// mis-speculated vote is discarded and the cohort deterministically
  /// re-votes once the truth reaches it, so the committed ledger stays
  /// bit-identical to a non-speculative run at every depth, thread count,
  /// and scheduler. The win: the vote exchange of round k+1 overlaps the
  /// challenge/response and decision legs of round k, breaking the
  /// ~2-round effective overlap cap (depth >= 4 shows real pipelining on
  /// the SimNet virtual clock). 2PC ignores this knob.
  bool speculate{false};

  /// Sign/verify every message envelope (the system-model requirement,
  /// §3.1). Commit-protocol messages are always signed; this toggle lets
  /// benchmarks skip signatures on the *data path* (begin/read/write), whose
  /// cost is not part of commit latency — the paper measures from the
  /// end-transaction request onward.
  bool sign_data_path{true};

  /// Batched signature verification (FIDES_BATCH_VERIFY). When set, sites
  /// that open many envelopes at once — the coordinator's per-phase vote and
  /// response inbox (in-process scheduler drains), and each cohort's check of
  /// the client requests inside a get-vote — verify them through one
  /// random-linear-combination aggregate (crypto::batch_verify) instead of
  /// one Schnorr check per signature, falling back to individual verifies to
  /// attribute bad batches. Decisions, ledgers, and Merkle roots are
  /// bit-identical with the knob on or off; only wall-clock time changes.
  bool batch_verify{false};

  // --- Crash/recovery -------------------------------------------------------

  /// Scheduled crash/recover cycles (simulated mode; see CrashFault). In
  /// direct mode use Cluster::crash_server / recover_server between rounds.
  std::vector<CrashFault> crashes;

  /// TFCommit cooperative termination: when the *coordinator* has been down
  /// for this much virtual time with a round still in flight, the lowest-id
  /// surviving cohort drives the round to a co-signed abort — the paper's
  /// headline contrast with 2PC, which blocks until the coordinator
  /// recovers. 0 disables termination (rounds wait for recovery, preserving
  /// bit-identity with an uncrashed run).
  double termination_timeout_us{0.0};

  /// Directory for file-backed per-server round logs ("<dir>/server-<id>.
  /// rlog"). Empty = in-memory logs (still durable across a simulated
  /// server crash: the Cluster owns them, the Server objects do not).
  std::string round_log_dir;
};

}  // namespace fides

// Cluster wiring and the commit-round entry points.
//
// The cluster owns all servers and the transport, executes the client data
// path, and hands commit rounds to the engine (src/engine/): one set of
// event-driven protocol reactors runs under two interchangeable schedulers —
// the in-process scheduler (per-server FIFO queues drained concurrently on
// the cluster's thread pool) and the seeded discrete-event SimNet
// (ClusterConfig::network.mode == kSimulated).
//
// Timing model: all nodes run in one process, and there are two clocks.
//
//   * The wall clock measures performance: each round reports the wall time
//     it took (measured_latency_us) and the compute of its coordinator,
//     slowest cohort and Merkle work. With num_threads > 1 per-server work
//     runs concurrently, so multi-core hardware shows that parallelism.
//   * SimNet virtual time (network.mode == kSimulated) is the protocol
//     model: deterministic given the seed, read from simnet()->now_us(),
//     never folded into a round's metrics.
//
// Execution is deterministic: protocol state is per-server (serialized by
// the scheduler) or per-slot (one writer), and aggregation fires on message
// counts, not arrival order — so a 1-thread and an N-thread run, and a
// depth-1 and a depth-K pipelined run, of the same batches produce
// identical decisions, blocks, ledger state, and co-signs.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>

#include "commit/batch.hpp"
#include "common/thread_pool.hpp"
#include "fides/client.hpp"
#include "fides/server.hpp"
#include "ledger/checkpoint.hpp"
#include "ordserv/sequencer.hpp"

namespace fides {

namespace sim {
class SimNet;
}
namespace engine {
class Scheduler;
}
namespace ordserv {
struct GroupRunResult;
}

/// Everything a commit round reports to the harness.
struct RoundMetrics {
  ledger::Decision decision{ledger::Decision::kAbort};
  std::size_t txns_in_block{0};

  double coordinator_us{0};      ///< total coordinator compute
  double cohort_critical_us{0};  ///< slowest cohort's total compute
  double mht_us{0};              ///< max per-server Merkle time in this round

  /// Wall clock this process actually spent on the round (thread-pool
  /// fan-out included). At pipeline depth > 1 rounds overlap, so per-round
  /// measured latencies do not sum to the run's wall time — use
  /// PipelineResult::wall_us for throughput.
  double measured_latency_us{0};

  /// Threads the round executed on (1 = sequential or simulated driver).
  std::size_t threads_used{1};

  /// Cosign health (TFCommit and checkpoint rounds).
  bool cosign_valid{false};
  std::vector<ServerId> faulty_cosigners;
  std::vector<std::pair<ServerId, std::string>> refusals;

  /// Servers observed sending two *different* authentic votes for this
  /// round — must stay empty for honest servers across any schedule,
  /// including crash/restore cycles (the vote-once safety oracle).
  std::vector<ServerId> vote_equivocators;

  /// The round was finished by the surviving cohorts after a coordinator
  /// crash (TFCommit cooperative termination) rather than by its
  /// coordinator.
  bool terminated_by_cohorts{false};

  /// Speculative pipelining: vote variants the coordinator discarded
  /// because their speculated base did not match the decided chain (each
  /// one was superseded by a deterministic re-vote). Always 0 when
  /// ClusterConfig::speculate is off.
  std::size_t spec_revotes{0};
};

/// A batched run of commit rounds: per-round metrics (in round order) plus
/// the whole call's wall time.
struct PipelineResult {
  std::vector<RoundMetrics> rounds;
  double wall_us{0};
};

/// One open-loop transaction's client-side schedule (simulated-network
/// runs): which client submits it, when on the virtual clock, and which
/// block it was packed into.
struct OpenLoopTxn {
  std::uint32_t client{0};  ///< ClientId value; also fixes session affinity
  double arrival_us{0};     ///< submit time on the SimNet virtual clock
  std::size_t round{0};     ///< index of the batch the txn was packed into
};

/// Cluster::run_open_loop outcome: the per-round engine metrics plus the
/// client-side view — per-transaction latency is the virtual time from the
/// client's submit timer to the commit response arriving back at it, so it
/// includes queueing at the coordinator, which closed-loop runs never see.
struct OpenLoopOutcome {
  PipelineResult pipeline;
  /// Submit→response virtual µs, indexed like the txn list; -1 for a txn
  /// whose response never reached its client.
  std::vector<double> latency_us;
  std::uint64_t client_sends{0};    ///< submit copies clients put on the wire
  std::uint64_t client_retries{0};  ///< re-sends after a retry timeout
  std::uint64_t dup_responses{0};   ///< response copies discarded at clients
  double span_us{0};                ///< virtual time of the last client response
};

/// A checkpoint CoSi round's outcome, with metrics populated uniformly with
/// the commit paths (compute, measured wall time, threads).
struct CheckpointOutcome {
  std::optional<ledger::Checkpoint> checkpoint;
  RoundMetrics metrics;
};

/// A data-path envelope failed verification: the server refused a client's
/// request, or the client refused the server's signed reply. The operation
/// has no result; the caller sees this error instead of a default one.
struct DataPathError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// "Every cohort verifies ... the encapsulated client request": Schnorr
/// check of every request touching `server`'s shard, counting one
/// verification per checked request and failing fast on the first bad
/// signature. One definition for every scheduler — outcomes and stats
/// accounting must stay bit-identical across them.
bool verify_touching_requests(Transport& transport, const Server& server,
                              std::span<const commit::SignedEndTxn> requests);

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();  // out of line: sim::SimNet is incomplete here

  const ClusterConfig& config() const { return config_; }
  std::uint32_t num_servers() const { return config_.num_servers; }

  Server& server(ServerId id) { return *servers_.at(id.value); }
  const Server& server(ServerId id) const { return *servers_.at(id.value); }
  ServerId coordinator_id() const { return ServerId{0}; }

  /// The cluster's key registry (the transport's): every server and client
  /// key as a precomputed table, and one aggregate table per distinct signer
  /// set, which every co-sign check reads.
  const crypto::KeyRegistry& server_keys() const { return transport_.keys(); }

  Transport& transport() { return transport_; }

  /// The cluster's worker pool (sized by ClusterConfig::num_threads; runs
  /// everything inline when num_threads == 1).
  common::ThreadPool& pool() { return *pool_; }

  /// Threads commit rounds run on (1 when sequential).
  std::size_t round_threads() const;

  /// This cluster's per-block epoch source (an ordserv::EpochCounter, the
  /// same mechanism OrdServ uses for group-commit round ids — but its own
  /// domain): every engine round — commit or checkpoint — reserves one
  /// epoch, which tags its messages on the wire so pipelined rounds route
  /// and deduplicate correctly within this cluster's transport.
  ordserv::EpochCounter& epochs() { return epochs_; }

  /// The simulated network carrying commit-round and checkpoint traffic, or
  /// nullptr in direct-delivery mode. One instance persists across rounds:
  /// the virtual clock, RNG stream, and trace hash cover the whole run, so
  /// a multi-round schedule reproduces from ClusterConfig::network.sim.seed.
  sim::SimNet* simnet() { return simnet_.get(); }
  const sim::SimNet* simnet() const { return simnet_.get(); }

  /// Creates a client registered with the transport.
  Client& make_client();

  /// Client `id` (created by make_client; ids are dense from 0).
  Client& client(ClientId id) { return *clients_.at(id.value); }

  /// Which server owns an item.
  ServerId owner_of(ItemId item) const;

  // --- Crash / recovery -------------------------------------------------------

  /// Crashes a server: the Server object — shard, ledger, cohort round
  /// state, client-message log — is destroyed outright. Only
  /// the durable round log (owned here, not by the Server) survives. In
  /// simulated mode the engine invokes this from CrashFault schedules; the
  /// public API exists so direct-mode tests drive the same path between
  /// rounds. Accessing server(id) while it is down is a programming error.
  void crash_server(ServerId id);

  /// Rebuilds the server from scratch and replays its durable round log
  /// (ledger blocks re-appended, committed writes re-applied, recorded
  /// votes reloaded for vote-once). Returns false — and leaves the server
  /// down — if the log fails its chained integrity check. Byzantine fault
  /// flags installed before the crash survive it (they model the server's
  /// code, not its memory).
  bool recover_server(ServerId id);

  bool is_crashed(ServerId id) const { return crashed_[id.value] != 0; }

  /// Lowest-id live server other than `dead` — the cohort that drives
  /// TFCommit termination when the coordinator dies. Nullopt if none.
  std::optional<ServerId> backup_for(ServerId dead) const;

  /// Transition-triggered crash points: called by the engine after `server`
  /// finishes processing a delivery of `type`; returns the matching
  /// CrashFault exactly once when its occurrence count is reached.
  std::optional<CrashFault> poll_crash_point(std::uint32_t server,
                                             const std::string& type);

  // --- Data path (called by Client) -----------------------------------------
  //
  // Each call throws DataPathError when a request or reply envelope fails
  // open_data (a wrong key or a forged signature under sign_data_path).

  store::ReadResult client_read(Client& client, TxnId txn, ItemId item);
  WriteAck client_write(Client& client, TxnId txn, ItemId item, Bytes value);
  void client_begin(Client& client, TxnId txn, std::span<const ItemId> items);

  // --- Commit rounds ---------------------------------------------------------

  /// Runs one round per batch through the engine, with up to
  /// config().pipeline_depth blocks in flight (Figure 7 phases per block;
  /// ledger append order stays sequential at every depth).
  PipelineResult run_blocks(std::vector<std::vector<commit::SignedEndTxn>> batches);

  /// Open-loop run over the simulated network: clients are first-class
  /// SimNet nodes; txns[i] submits at its arrival time (client → affinity
  /// server → coordinator hops all traverse SimNet), round k is admitted
  /// once every transaction of batch k reached the coordinator, and the
  /// decision travels back to each submitting client as a signed response.
  /// Throws std::logic_error unless network.mode == kSimulated.
  OpenLoopOutcome run_open_loop(std::vector<std::vector<commit::SignedEndTxn>> batches,
                                std::vector<OpenLoopTxn> txns,
                                const sim::ClientModel& model);

  /// Runs one round over `batch` through config().protocol: TFCommit
  /// (Figure 7) or the 2PC baseline (§6.1).
  RoundMetrics run_block(std::vector<commit::SignedEndTxn> batch);

  /// Runs batches from `builder` until it drains — pipelined when
  /// config().pipeline_depth > 1; returns per-round metrics.
  std::vector<RoundMetrics> drain(commit::BatchBuilder& builder);

  /// Group commit (§4.6) through the engine: each batch's ServerGroup runs
  /// its own TFCommit round on the message reactors under the configured
  /// scheduler, with pipeline_depth and speculate composing per group;
  /// outcomes are serialized by `sequencer` and the hash-chained stream is
  /// delivered (validated, durably logged) to every server. The stream is
  /// bit-identical to the depth-1, one-thread, in-process run, and a call
  /// per batch extends the stream earlier calls on this cluster and
  /// `sequencer` left.
  ordserv::GroupRunResult run_group_blocks(
      ordserv::Sequencer& sequencer,
      std::vector<std::vector<commit::SignedEndTxn>> batches);

  /// Runs a collective-signing round over a checkpoint summarizing the
  /// current log (§3.3's checkpointing optimization): every server verifies
  /// the summary against its own log before contributing its share. The
  /// checkpoint is nullopt if any server's log disagrees (the co-sign would
  /// not form).
  CheckpointOutcome run_checkpoint_round();

  /// run_checkpoint_round() without the metrics.
  std::optional<ledger::Checkpoint> create_checkpoint();

 private:
  /// Runs fn(i) for every server index, on the pool when parallel.
  void for_each_server(const std::function<void(std::size_t)>& fn);

  /// Data-path envelopes: signed and verified when config().sign_data_path
  /// is set; otherwise wrapped unsigned (still counted) and accepted on
  /// their type tag. Commit-round traffic always signs. open_data throws
  /// DataPathError for an envelope it refuses.
  Envelope seal_data(const crypto::KeyPair& key, NodeId sender, const char* type,
                     Bytes payload);
  void open_data(const Envelope& env, const char* type);

  /// Runs `body` with the scheduler matching config().network.mode. Direct
  /// mode requires every server to be live (mid-round crash/recovery is a
  /// simulated-schedule feature).
  template <typename Fn>
  auto with_scheduler(Fn&& body);

  ClusterConfig config_;
  Transport transport_;
  std::unique_ptr<sim::SimNet> simnet_;  ///< non-null iff network.mode == kSimulated
  // Declared before servers_: shards keep a pointer to the pool for Merkle
  // rebuilds, so the pool must outlive them.
  std::unique_ptr<common::ThreadPool> pool_;
  // Declared before servers_: servers keep a pointer into their round log,
  // which must outlive them (it IS the state that survives a crash).
  std::vector<std::unique_ptr<ledger::RoundLog>> round_logs_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::unique_ptr<Client>> clients_;
  ordserv::EpochCounter epochs_;

  std::vector<unsigned char> crashed_;
  std::vector<FaultConfig> saved_faults_;  ///< reinstalled on recovery
  struct CrashWatch {
    CrashFault fault;
    std::uint32_t seen{0};
    bool fired{false};
  };
  std::vector<CrashWatch> crash_watch_;  ///< transition-triggered crash points
};

}  // namespace fides

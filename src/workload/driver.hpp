// Experiment driver shared by the figure-reproduction benchmarks.
//
// Runs the paper's measurement loop: generate client transactions, terminate
// them block by block through the configured commit protocol, and aggregate
// the two §6 metrics — commit latency (time from the end-transaction request
// to the decision) and throughput (committed transactions per second) —
// plus the Merkle-update time Figure 14 breaks out.
//
// Two load shapes:
//
//   * Closed loop (ArrivalProcess::kClosed, the default): each iteration
//     executes a window of pipeline_depth blocks' worth of transactions on
//     the data path, then hands the whole window's batches to the cluster in
//     one pipelined call — the paper's §6 measurement loop. Per-transaction
//     latency is its block's measured wall-clock latency.
//   * Open loop (kFixedRate / kPoisson, simulated network only): clients
//     are SimNet nodes submitting on the configured arrival schedule;
//     per-transaction latency is the virtual time from the client's submit
//     to the commit response arriving back, so percentiles capture queueing
//     delay. In direct mode the arrival/client knobs are ignored and the
//     run is bit-identical to the closed-loop driver.
//
// Either way the latencies feed a log-bucketed histogram, so results report
// p50/p99/p999 and max, not just means.
#pragma once

#include "common/histogram.hpp"
#include "workload/arrival.hpp"
#include "workload/ycsb.hpp"

namespace fides::workload {

struct ExperimentConfig {
  ClusterConfig cluster;
  WorkloadConfig workload;
  std::size_t total_txns{1000};
  std::size_t txns_per_block{100};

  /// Open-loop load shape; kClosed keeps the classic driver. Only honoured
  /// when cluster.network.mode == kSimulated (clients must be SimNet nodes).
  ArrivalConfig arrival;
  /// Client timeout/retry behaviour for open-loop runs.
  sim::ClientModel client_model;
};

struct ExperimentResult {
  std::size_t committed_txns{0};
  std::size_t aborted_txns{0};
  std::size_t blocks{0};

  /// Mean per-block Merkle update time (max across servers), in ms.
  double avg_mht_ms{0};

  /// Mean *measured* wall-clock latency per block, in milliseconds — what
  /// the round actually took in this process, with the thread pool doing
  /// per-server work concurrently. At pipeline depth > 1 rounds overlap, so
  /// these per-round spans overlap too.
  double avg_measured_ms{0};
  /// Committed transactions per second of measured commit wall time (the
  /// pipelined engine's actual rate; the depth > 1 gain shows up here).
  double measured_throughput_tps{0};
  /// Threads the commit rounds ran on.
  std::size_t threads{1};
  /// Commit rounds in flight (ClusterConfig::pipeline_depth).
  std::size_t pipeline_depth{1};

  // --- Per-transaction latency distribution ----------------------------------
  //
  // Closed loop: each transaction records its block's measured latency (so
  // the distribution reflects block-to-block variance). Open loop: each
  // transaction records its own submit→response virtual time. The histogram
  // merges exactly, so run_averaged pools the distribution across seeds.
  common::LogHistogram latency_hist;  ///< milliseconds
  double p50_ms{0};
  double p99_ms{0};
  double p999_ms{0};
  double max_ms{0};

  // --- Open-loop extras ------------------------------------------------------
  bool open_loop{false};
  double offered_tps{0};             ///< configured arrival rate
  double throughput_tps{0};          ///< committed txns per virtual second
  double span_ms{0};                 ///< virtual time to the last response
  std::uint64_t client_sends{0};     ///< submit copies clients put on the wire
  std::uint64_t client_retries{0};   ///< timeout-driven re-sends
  std::uint64_t dup_responses{0};    ///< response copies discarded at clients

  double wall_seconds{0};  ///< harness wall time, for scheduling runs
  Transport::Stats net;
};

/// One full run (the paper averages 3 runs per data point; the benches call
/// this with three seeds and average).
ExperimentResult run_experiment(const ExperimentConfig& config);

/// Averages results over `seeds` runs, paper-style. Latency histograms are
/// merged (exactly), and the percentile fields are recomputed from the
/// pooled distribution.
ExperimentResult run_averaged(ExperimentConfig config,
                              std::span<const std::uint64_t> seeds);

}  // namespace fides::workload

#include "workload/driver.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <map>
#include <stdexcept>

namespace fides::workload {

namespace {

void fill_percentiles(ExperimentResult& result) {
  result.p50_ms = result.latency_hist.percentile(50.0);
  result.p99_ms = result.latency_hist.percentile(99.0);
  result.p999_ms = result.latency_hist.percentile(99.9);
  result.max_ms = result.latency_hist.max();
}

/// Folds a finished run into `result`, the same for both load shapes. With
/// `block_latency` (closed loop) every transaction records its block's
/// measured latency; the open loop records its own before the fold.
void fold_run(Cluster& cluster, std::span<const RoundMetrics> rounds,
              double commit_wall_us, bool block_latency,
              std::chrono::steady_clock::time_point wall_start, ExperimentResult& result) {
  double total_measured_us = 0;
  double total_mht_us = 0;
  for (const RoundMetrics& metrics : rounds) {
    ++result.blocks;
    total_measured_us += metrics.measured_latency_us;
    total_mht_us += metrics.mht_us;
    if (block_latency) {
      for (std::size_t t = 0; t < metrics.txns_in_block; ++t) {
        result.latency_hist.record(metrics.measured_latency_us / 1000.0);
      }
    }
    if (metrics.decision == ledger::Decision::kCommit) {
      result.committed_txns += metrics.txns_in_block;
    } else {
      result.aborted_txns += metrics.txns_in_block;
    }
  }
  if (result.blocks > 0) {
    result.avg_measured_ms =
        total_measured_us / 1000.0 / static_cast<double>(result.blocks);
    result.avg_mht_ms = total_mht_us / 1000.0 / static_cast<double>(result.blocks);
  }
  if (commit_wall_us > 0) {
    result.measured_throughput_tps =
        static_cast<double>(result.committed_txns) / (commit_wall_us / 1e6);
  }
  fill_percentiles(result);
  result.threads = cluster.round_threads();
  result.pipeline_depth = std::max<std::uint32_t>(1, cluster.config().pipeline_depth);
  result.net = cluster.transport().stats();
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
}

/// Open-loop measurement: clients are SimNet nodes submitting on the
/// configured arrival schedule. The data path (reads/buffered writes) still
/// executes up front — what traverses the simulated network is the commit
/// request / response choreography, which is where queueing happens.
ExperimentResult run_open_loop_experiment(const ExperimentConfig& config) {
  const auto wall_start = std::chrono::steady_clock::now();

  Cluster cluster(config.cluster);
  const std::uint32_t m = std::max<std::uint32_t>(1, config.arrival.num_clients);
  std::vector<Client*> clients;
  clients.reserve(m);
  for (std::uint32_t i = 0; i < m; ++i) clients.push_back(&cluster.make_client());

  const std::uint64_t total_items =
      static_cast<std::uint64_t>(config.cluster.num_servers) *
      config.cluster.items_per_shard;
  YcsbWorkload workload(config.workload, total_items, config.cluster.seed);

  const std::vector<double> arrivals = arrival_times_us(config.arrival, config.total_txns);

  // Generate in arrival order, round-robin over the client population; the
  // batcher then packs blocks exactly as the closed-loop driver would.
  commit::BatchBuilder batcher(config.txns_per_block);
  std::vector<OpenLoopTxn> txns(config.total_txns);
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> index_of;
  for (std::size_t i = 0; i < config.total_txns; ++i) {
    if (i % config.txns_per_block == 0) workload.begin_batch();
    Client& client = *clients[i % m];
    commit::SignedEndTxn req = workload.run_transaction(client);
    index_of[{req.request.txn.id.client, req.request.txn.id.seq}] = i;
    txns[i] = OpenLoopTxn{client.id().value, arrivals[i], 0};
    batcher.enqueue(std::move(req));
  }
  std::vector<std::vector<commit::SignedEndTxn>> batches;
  while (!batcher.empty()) batches.push_back(batcher.next_batch());
  for (std::size_t k = 0; k < batches.size(); ++k) {
    for (const commit::SignedEndTxn& req : batches[k]) {
      txns.at(index_of.at({req.request.txn.id.client, req.request.txn.id.seq})).round = k;
    }
  }

  const OpenLoopOutcome run =
      cluster.run_open_loop(std::move(batches), std::move(txns), config.client_model);

  ExperimentResult result;
  result.open_loop = true;
  result.offered_tps = config.arrival.rate_tps;
  for (const double us : run.latency_us) {
    if (us >= 0) result.latency_hist.record(us / 1000.0);
  }
  fold_run(cluster, run.pipeline.rounds, run.pipeline.wall_us, /*block_latency=*/false,
           wall_start, result);
  result.span_ms = run.span_us / 1000.0;
  result.client_sends = run.client_sends;
  result.client_retries = run.client_retries;
  result.dup_responses = run.dup_responses;
  // Open-loop throughput is committed work over the virtual span of the
  // whole run (arrival of the first txn to the last response) — a pure
  // virtual-time quantity, byte-reproducible from the seed.
  if (run.span_us > 0) {
    result.throughput_tps =
        static_cast<double>(result.committed_txns) / (run.span_us / 1e6);
  }
  return result;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  // Open-loop shapes need clients on the simulated network; in direct mode
  // the arrival/client knobs are ignored outright so direct-mode results
  // stay bit-identical whatever those knobs say.
  if (config.arrival.process != ArrivalProcess::kClosed &&
      config.cluster.network.mode == sim::NetworkMode::kSimulated) {
    return run_open_loop_experiment(config);
  }

  const auto wall_start = std::chrono::steady_clock::now();

  Cluster cluster(config.cluster);
  Client& client = cluster.make_client();
  const std::uint64_t total_items =
      static_cast<std::uint64_t>(config.cluster.num_servers) *
      config.cluster.items_per_shard;
  YcsbWorkload workload(config.workload, total_items, config.cluster.seed);

  std::vector<RoundMetrics> rounds;
  double commit_wall_us = 0;

  // Execute one window's transactions against the data path, then terminate
  // them together (§4.6 batching). The window spans pipeline_depth blocks so
  // a deeper pipeline always has its next block ready.
  const std::size_t window =
      config.txns_per_block * std::max<std::uint32_t>(1, config.cluster.pipeline_depth);
  std::size_t remaining = config.total_txns;
  commit::BatchBuilder batcher(config.txns_per_block);
  while (remaining > 0) {
    workload.begin_batch();
    const std::size_t n = std::min(window, remaining);
    for (std::size_t i = 0; i < n; ++i) {
      batcher.enqueue(workload.run_transaction(client));
    }
    remaining -= n;

    std::vector<std::vector<commit::SignedEndTxn>> batches;
    while (!batcher.empty()) {
      batches.push_back(batcher.next_batch());
    }
    PipelineResult run = cluster.run_blocks(std::move(batches));
    commit_wall_us += run.wall_us;
    rounds.insert(rounds.end(), std::make_move_iterator(run.rounds.begin()),
                  std::make_move_iterator(run.rounds.end()));
  }

  ExperimentResult result;
  fold_run(cluster, rounds, commit_wall_us, /*block_latency=*/true, wall_start, result);
  return result;
}

ExperimentResult run_averaged(ExperimentConfig config,
                              std::span<const std::uint64_t> seeds) {
  ExperimentResult avg;
  for (const std::uint64_t seed : seeds) {
    config.cluster.seed = seed;
    const ExperimentResult r = run_experiment(config);
    avg.committed_txns += r.committed_txns;
    avg.aborted_txns += r.aborted_txns;
    avg.blocks += r.blocks;
    avg.throughput_tps += r.throughput_tps;
    avg.avg_mht_ms += r.avg_mht_ms;
    avg.avg_measured_ms += r.avg_measured_ms;
    avg.measured_throughput_tps += r.measured_throughput_tps;
    avg.threads = r.threads;
    avg.pipeline_depth = r.pipeline_depth;
    avg.wall_seconds += r.wall_seconds;
    avg.net.messages += r.net.messages;
    avg.net.bytes += r.net.bytes;
    avg.net.signatures_created += r.net.signatures_created;
    avg.net.signatures_verified += r.net.signatures_verified;
    avg.latency_hist.merge(r.latency_hist);
    avg.open_loop = r.open_loop;
    avg.offered_tps = r.offered_tps;
    avg.span_ms += r.span_ms;
    avg.client_sends += r.client_sends;
    avg.client_retries += r.client_retries;
    avg.dup_responses += r.dup_responses;
  }
  const double n = static_cast<double>(seeds.size());
  if (n > 0) {
    avg.throughput_tps /= n;
    avg.avg_mht_ms /= n;
    avg.avg_measured_ms /= n;
    avg.measured_throughput_tps /= n;
    avg.span_ms /= n;
  }
  // Percentiles come from the pooled (exactly merged) distribution, not an
  // average of per-seed percentiles.
  fill_percentiles(avg);
  return avg;
}

}  // namespace fides::workload

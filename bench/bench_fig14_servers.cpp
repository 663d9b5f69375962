// Figure 14 — varying the number of servers/shards (§6.3).
//
// Sweep: 3..9 servers, 10000 items/shard, 100 transactions per block.
// Paper result: +47% throughput and -33% latency from 3 to 9 servers; the
// per-block Merkle (MHT) update time shrinks as the 500 operations per block
// spread across more shards.
//
// This bench reports the *measured* wall-clock latency and throughput of
// each round under the parallel round engine, then validates the engine
// itself: the same batch executed at 1 thread and at N threads must
// produce identical commit decisions and ledger contents, with the N-thread
// run faster on multi-core hardware (FIDES_THREADS controls N; see
// bench_common.hpp).
#include <algorithm>

#include "bench_common.hpp"
#include "workload/ycsb.hpp"

namespace {

using namespace fides;

/// Runs `rounds` TFCommit blocks of a deterministic YCSB workload on a fresh
/// cluster with `num_threads` workers and returns the ledger fingerprint,
/// with the rounds' measured wall clock summed into wall_us.
bench::DepthRun run_engine(std::uint32_t servers, std::uint32_t num_threads,
                           std::size_t rounds, std::size_t txns_per_block) {
  ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.items_per_shard = 10000;
  cfg.max_batch_size = txns_per_block;
  cfg.num_threads = num_threads;
  cfg.sign_data_path = false;

  Cluster cluster(cfg);
  Client& client = cluster.make_client();
  workload::YcsbWorkload workload(
      {}, static_cast<std::uint64_t>(servers) * cfg.items_per_shard, cfg.seed);

  std::vector<RoundMetrics> metrics;
  double total_measured_us = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    workload.begin_batch();
    commit::BatchBuilder batcher(txns_per_block);
    for (std::size_t i = 0; i < txns_per_block; ++i) {
      batcher.enqueue(workload.run_transaction(client));
    }
    while (!batcher.empty()) {
      metrics.push_back(cluster.run_block(batcher.next_batch()));
      total_measured_us += metrics.back().measured_latency_us;
    }
  }
  return bench::fingerprint(cluster, metrics, total_measured_us, servers);
}

void parallel_engine_section(bench::BenchReport& report) {
  const std::uint32_t servers = 8;
  // Same FIDES_THREADS knob as the sweep above, floored at 4: this section
  // exists to demonstrate the multi-thread engine, so it never runs below
  // the minimum width that can show a speedup.
  const std::uint32_t threads = std::max<std::uint32_t>(4, fides::bench::bench_threads());
  const std::size_t rounds = std::max<std::size_t>(2, fides::bench::bench_txns() / 100);

  std::printf("\nParallel round engine: %u servers, %zu rounds of 100 txns\n", servers,
              rounds);
  const bench::DepthRun seq = run_engine(servers, 1, rounds, 100);
  const bench::DepthRun par = run_engine(servers, threads, rounds, 100);
  const double seq_ms_per_round = seq.wall_us / 1000.0 / static_cast<double>(rounds);
  const double par_ms_per_round = par.wall_us / 1000.0 / static_cast<double>(rounds);

  const bool identical = seq.same_ledger(par);
  const double speedup = par.wall_us > 0 ? seq.wall_us / par.wall_us : 0.0;
  std::printf("%-24s %-18s %-18s %-9s %s\n", "", "measured_ms/round", "committed_txns",
              "speedup", "ledger");
  std::printf("%-24s %-18.3f %-18zu %-9s %s\n", "1 thread", seq_ms_per_round,
              seq.committed_txns, "1.00x", "-");
  std::printf("%-24s %-18.3f %-18zu %.2fx    %s\n",
              (std::to_string(threads) + " threads").c_str(), par_ms_per_round,
              par.committed_txns, speedup, identical ? "identical" : "DIVERGED");
  if (!identical) {
    std::printf("ERROR: parallel run diverged from sequential run\n");
    std::exit(1);
  }
  bench::BenchPoint& p = report.point("parallel_engine");
  p.approx.set("seq_ms_per_round", seq_ms_per_round);
  p.approx.set("par_ms_per_round", par_ms_per_round);
  p.info.set("threads", threads);
  p.info.set("speedup", speedup);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fides;
  bench::print_header(
      "Figure 14: number of servers, 100 txns/block",
      "throughput +~47%, latency -~33%, MHT update time falls, 3 -> 9 servers");

  bench::BenchReport report("fig14_servers");
  bench::stamp_config(report);

  std::printf("%-8s %-14s %-16s %-10s %-14s %-10s\n", "servers", "measured_ms",
              "measured_tps", "p99_ms", "mht_update_ms", "aborted");

  for (std::uint32_t servers = 3; servers <= 9; ++servers) {
    workload::ExperimentConfig cfg;
    cfg.cluster.num_servers = servers;
    cfg.cluster.items_per_shard = 10000;
    cfg.cluster.max_batch_size = 100;
    cfg.txns_per_block = 100;
    const auto r = bench::run_point(cfg);
    std::printf("%-8u %-14.2f %-16.0f %-10.2f %-14.4f %-10zu\n", servers,
                r.avg_measured_ms, r.measured_throughput_tps, r.p99_ms, r.avg_mht_ms,
                r.aborted_txns);
    bench::add_experiment_point(report, "servers" + std::to_string(servers), r);
  }

  parallel_engine_section(report);
  bench::pipeline_depth_section(/*servers=*/4, /*txns_per_block=*/25,
                                /*blocks=*/std::max<std::size_t>(8, bench::bench_txns() / 25),
                                &report);
  bench::finish_report(report, argc, argv);
  return 0;
}

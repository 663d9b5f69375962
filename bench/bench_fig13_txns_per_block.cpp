// Figure 13 — varying transactions per block (§6.2).
//
// Sweep: 5 servers, 10000 items/shard, 2..120 transactions per block.
// Paper result: per-transaction commit latency drops ~2.6x and throughput
// rises ~2.5x once >= 80 transactions are batched per block.
//
// Ends with the pipelined-engine section: the same batch stream replayed at
// pipeline depths 1/2/4, reporting measured throughput per depth and
// hard-failing on any ledger divergence (see bench_common.hpp).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace fides;
  bench::print_header(
      "Figure 13: transactions per block, 5 servers",
      "latency/txn falls ~2.6x, throughput rises ~2.5x by batch >= 80");

  bench::BenchReport report("fig13_txns_per_block");
  bench::stamp_config(report);

  std::printf("%-12s %-16s %-14s %-10s %-12s %-10s\n", "txns/block",
              "measured_ms(txn)", "measured_tps", "p99_ms", "blocks", "aborted");

  for (const std::size_t batch : {2, 20, 40, 60, 80, 100, 120}) {
    workload::ExperimentConfig cfg;
    cfg.cluster.num_servers = 5;
    cfg.cluster.items_per_shard = 10000;
    cfg.cluster.max_batch_size = batch;
    cfg.txns_per_block = batch;
    const auto r = bench::run_point(cfg);
    // Per-transaction commit latency: the block's measured latency divided
    // across the batch (every transaction in the block terminates together).
    const double per_txn_measured_ms =
        r.blocks > 0 ? r.avg_measured_ms / static_cast<double>(batch) : 0;
    std::printf("%-12zu %-16.3f %-14.0f %-10.3f %-12zu %-10zu\n", batch,
                per_txn_measured_ms, r.measured_throughput_tps, r.p99_ms, r.blocks,
                r.aborted_txns);
    bench::add_experiment_point(report, "batch" + std::to_string(batch), r);
  }

  bench::pipeline_depth_section(/*servers=*/4, /*txns_per_block=*/25,
                                /*blocks=*/std::max<std::size_t>(8, bench::bench_txns() / 25),
                                &report);
  bench::finish_report(report, argc, argv);
  return 0;
}

// Figure 12 — 2PC vs TFCommit (§6.1).
//
// Sweep: 3..7 servers, ONE transaction per block (so the per-transaction
// overhead of trust-freedom is visible), 10000 items/shard.
// Paper result: TFCommit latency ≈ 1.8x 2PC; 2PC throughput ≈ 2.1x TFCommit.
// Latencies and throughputs are measured wall time, so are both ratios.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace fides;
  bench::print_header(
      "Figure 12: 2PC vs TFCommit, 1 txn/block, 3-7 servers",
      "TFC latency ~1.8x 2PC; 2PC throughput ~2.1x TFC; both flat-ish in n");

  bench::BenchReport report("fig12_2pc_vs_tfc");
  bench::stamp_config(report);

  std::printf("%-8s %-12s %-12s %-12s %-12s %-10s %-10s %-10s\n", "servers",
              "tfc_meas_ms", "2pc_meas_ms", "tfc_tps", "2pc_tps", "tfc_p99_ms",
              "lat_ratio", "tps_ratio");

  for (std::uint32_t servers = 3; servers <= 7; ++servers) {
    workload::ExperimentConfig cfg;
    cfg.cluster.num_servers = servers;
    cfg.cluster.items_per_shard = 10000;
    cfg.txns_per_block = 1;
    cfg.cluster.max_batch_size = 1;

    cfg.cluster.protocol = Protocol::kTfCommit;
    const auto tfc = bench::run_point(cfg);
    cfg.cluster.protocol = Protocol::kTwoPhaseCommit;
    const auto tpc = bench::run_point(cfg);

    std::printf("%-8u %-12.3f %-12.3f %-12.0f %-12.0f %-10.3f %-10.2f %-10.2f\n",
                servers, tfc.avg_measured_ms, tpc.avg_measured_ms,
                tfc.measured_throughput_tps, tpc.measured_throughput_tps, tfc.p99_ms,
                tfc.avg_measured_ms / tpc.avg_measured_ms,
                tpc.measured_throughput_tps / tfc.measured_throughput_tps);

    bench::add_experiment_point(report, "tfc/servers" + std::to_string(servers), tfc);
    bench::add_experiment_point(report, "2pc/servers" + std::to_string(servers), tpc);
  }
  bench::finish_report(report, argc, argv);
  return 0;
}

// Figure 15 — varying data items per shard (§6.4).
//
// Sweep: 5 servers, 100 transactions per block, 1000..10000 items per shard.
// Paper result: latency +~15%, throughput -~14% as shards grow (deeper
// Merkle trees: updating a leaf touches ~10 nodes at 1k items, ~14 at 10k).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace fides;
  bench::print_header(
      "Figure 15: items per shard, 5 servers, 100 txns/block",
      "latency rises ~15%, throughput falls ~14%, 1k -> 10k items/shard");

  bench::BenchReport report("fig15_items_per_shard");
  bench::stamp_config(report);

  std::printf("%-14s %-14s %-16s %-10s %-14s\n", "items/shard", "measured_ms",
              "measured_tps", "p99_ms", "mht_update_ms");

  for (std::uint32_t items = 1000; items <= 10000; items += 1000) {
    workload::ExperimentConfig cfg;
    cfg.cluster.num_servers = 5;
    cfg.cluster.items_per_shard = items;
    cfg.cluster.max_batch_size = 100;
    cfg.txns_per_block = 100;
    const auto r = bench::run_point(cfg);
    std::printf("%-14u %-14.2f %-16.0f %-10.2f %-14.4f\n", items, r.avg_measured_ms,
                r.measured_throughput_tps, r.p99_ms, r.avg_mht_ms);
    bench::add_experiment_point(report, "items" + std::to_string(items), r);
  }
  bench::finish_report(report, argc, argv);
  return 0;
}

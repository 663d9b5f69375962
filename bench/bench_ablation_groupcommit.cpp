// Ablation: global TFCommit vs §4.6 group commit.
//
// With a global coordinator every server participates in every termination;
// with group commit only the involved servers do. This bench measures the
// per-block signer count and round cost as the cluster grows while each
// transaction keeps touching 5 items — the scaling argument of §4.6.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "ordserv/group_engine.hpp"
#include "workload/ycsb.hpp"

int main(int argc, char** argv) {
  using namespace fides;
  bench::BenchReport report("ablation_groupcommit");
  std::printf("============================================================\n");
  std::printf("Ablation: global TFCommit vs group commit (5-item txns)\n");
  std::printf("============================================================\n");
  std::printf("%-8s %-18s %-18s %-20s\n", "servers", "global_signers",
              "group_signers_avg", "group_round_ms_avg");

  for (const std::uint32_t servers : {5u, 9u, 16u, 25u}) {
    ClusterConfig cfg;
    cfg.num_servers = servers;
    cfg.items_per_shard = 1000;
    cfg.versioning = store::VersioningMode::kSingle;
    cfg.sign_data_path = false;
    Cluster cluster(cfg);
    Client& client = cluster.make_client();
    workload::YcsbWorkload wl({}, static_cast<std::uint64_t>(servers) * 1000, 42);

    ordserv::Sequencer sequencer;

    const int kRounds = 20;
    double group_size_sum = 0;
    double ms_sum = 0;
    for (int i = 0; i < kRounds; ++i) {
      const auto req = wl.run_transaction(client);
      const auto t0 = std::chrono::steady_clock::now();
      const auto run = cluster.run_group_blocks(sequencer, {{req}});
      ms_sum += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
      group_size_sum += static_cast<double>(run.rounds.front().group_size);
    }
    std::printf("%-8u %-18u %-18.1f %-20.3f\n", servers, servers,
                group_size_sum / kRounds, ms_sum / kRounds);

    bench::BenchPoint& p = report.point("servers" + std::to_string(servers));
    p.exact.set("global_signers", static_cast<double>(servers));
    p.exact.set("group_signers_avg", group_size_sum / kRounds);
    p.approx.set("group_round_ms_avg", ms_sum / kRounds);
  }
  bench::finish_report(report, argc, argv);
  return 0;
}

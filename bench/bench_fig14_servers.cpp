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
#include <utility>

#include "bench_common.hpp"
#include "workload/ycsb.hpp"

namespace {

using namespace fides;

struct EngineRun {
  double measured_us_per_round{0};
  ledger::Decision decision{ledger::Decision::kAbort};
  std::vector<crypto::Digest> log_heads;     // per server
  std::vector<crypto::Digest> merkle_roots;  // per server
};

/// Runs `rounds` TFCommit blocks of a deterministic YCSB workload on a fresh
/// cluster with `num_threads` workers and returns the measured per-round
/// wall clock plus the final ledger fingerprint.
EngineRun run_engine(std::uint32_t servers, std::uint32_t num_threads,
                     std::size_t rounds, std::size_t txns_per_block,
                     bool batch_verify = false) {
  ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.items_per_shard = 10000;
  cfg.max_batch_size = txns_per_block;
  cfg.num_threads = num_threads;
  cfg.sign_data_path = false;
  cfg.batch_verify = batch_verify;

  Cluster cluster(cfg);
  Client& client = cluster.make_client();
  workload::YcsbWorkload workload(
      {}, static_cast<std::uint64_t>(servers) * cfg.items_per_shard, cfg.seed);

  EngineRun run;
  double total_measured_us = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    workload.begin_batch();
    commit::BatchBuilder batcher(txns_per_block);
    for (std::size_t i = 0; i < txns_per_block; ++i) {
      batcher.enqueue(workload.run_transaction(client));
    }
    while (!batcher.empty()) {
      const RoundMetrics metrics = cluster.run_block(batcher.next_batch());
      total_measured_us += metrics.measured_latency_us;
      run.decision = metrics.decision;
    }
  }
  run.measured_us_per_round = total_measured_us / static_cast<double>(rounds);
  for (std::uint32_t i = 0; i < servers; ++i) {
    run.log_heads.push_back(cluster.server(ServerId{i}).log().head_hash());
    run.merkle_roots.push_back(cluster.server(ServerId{i}).shard().merkle_root());
  }
  return run;
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
  const EngineRun seq = run_engine(servers, 1, rounds, 100);
  const EngineRun par = run_engine(servers, threads, rounds, 100);

  const bool identical = seq.decision == par.decision &&
                         seq.log_heads == par.log_heads &&
                         seq.merkle_roots == par.merkle_roots;
  const double speedup =
      par.measured_us_per_round > 0
          ? seq.measured_us_per_round / par.measured_us_per_round
          : 0.0;
  std::printf("%-24s %-18s %-18s %-9s %s\n", "", "measured_ms/round", "decision", "speedup",
              "ledger");
  std::printf("%-24s %-18.3f %-18s %-9s %s\n", "1 thread",
              seq.measured_us_per_round / 1000.0,
              seq.decision == ledger::Decision::kCommit ? "commit" : "abort", "1.00x", "-");
  std::printf("%-24s %-18.3f %-18s %.2fx    %s\n",
              (std::to_string(threads) + " threads").c_str(),
              par.measured_us_per_round / 1000.0,
              par.decision == ledger::Decision::kCommit ? "commit" : "abort", speedup,
              identical ? "identical" : "DIVERGED");
  if (!identical) {
    std::printf("ERROR: parallel run diverged from sequential run\n");
    std::exit(1);
  }
  bench::BenchPoint& p = report.point("parallel_engine");
  p.approx.set("seq_ms_per_round", seq.measured_us_per_round / 1000.0);
  p.approx.set("par_ms_per_round", par.measured_us_per_round / 1000.0);
  p.info.set("threads", threads);
  p.info.set("speedup", speedup);
}

/// Wide-cohort rounds with FIDES_BATCH_VERIFY semantics off vs on: the same
/// workload, threads, and seeds, with the only difference being whether the
/// coordinator inbox and per-cohort request checks verify signatures one by
/// one or as RLC aggregates. The ledger must be byte-identical either way;
/// the wall clock must improve by >= 1.3x (the bench gate CI runs).
void batch_verify_section(bench::BenchReport& report) {
  const std::uint32_t servers = 9;
  const std::uint32_t threads = std::max<std::uint32_t>(4, fides::bench::bench_threads());
  const std::size_t rounds = std::max<std::size_t>(4, fides::bench::bench_txns() / 100);

  std::printf("\nBatched verification: %u servers, %zu rounds of 100 txns, %u threads\n",
              servers, rounds, threads);
  // Each side runs kTrials times, interleaved, and keeps its fastest run: a
  // round takes only tens of ms, so one burst of load from another process
  // could otherwise decide the wall-clock ratio. Runs are deterministic, so
  // every trial reaches the same ledger.
  constexpr int kTrials = 5;
  EngineRun off, on;
  for (int t = 0; t < kTrials; ++t) {
    EngineRun o = run_engine(servers, threads, rounds, 100, /*batch_verify=*/false);
    EngineRun b = run_engine(servers, threads, rounds, 100, /*batch_verify=*/true);
    if (t == 0 || o.measured_us_per_round < off.measured_us_per_round) off = std::move(o);
    if (t == 0 || b.measured_us_per_round < on.measured_us_per_round) on = std::move(b);
  }

  const bool identical = off.decision == on.decision && off.log_heads == on.log_heads &&
                         off.merkle_roots == on.merkle_roots;
  const double speedup = on.measured_us_per_round > 0
                             ? off.measured_us_per_round / on.measured_us_per_round
                             : 0.0;
  std::printf("%-24s %-18s %-18s %-9s %s\n", "", "measured_ms/round", "decision",
              "speedup", "ledger");
  std::printf("%-24s %-18.3f %-18s %-9s %s\n", "per-signature opens",
              off.measured_us_per_round / 1000.0,
              off.decision == ledger::Decision::kCommit ? "commit" : "abort", "1.00x", "-");
  std::printf("%-24s %-18.3f %-18s %.2fx    %s\n", "batched opens",
              on.measured_us_per_round / 1000.0,
              on.decision == ledger::Decision::kCommit ? "commit" : "abort", speedup,
              identical ? "identical" : "DIVERGED");
  if (!identical) {
    std::printf("ERROR: batched verification diverged from per-signature opens\n");
    std::exit(1);
  }
  if (speedup < 1.3) {
    std::printf("ERROR: batched verification failed the 1.3x wall-clock bar (%.2fx)\n",
                speedup);
    std::exit(1);
  }
  bench::BenchPoint& p = report.point("batch_verify_engine");
  p.approx.set("unbatched_ms_per_round", off.measured_us_per_round / 1000.0);
  p.approx.set("batched_ms_per_round", on.measured_us_per_round / 1000.0);
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
  batch_verify_section(report);
  bench::pipeline_depth_section(/*servers=*/4, /*txns_per_block=*/25,
                                /*blocks=*/std::max<std::size_t>(8, bench::bench_txns() / 25),
                                &report);
  bench::finish_report(report, argc, argv);
  return 0;
}

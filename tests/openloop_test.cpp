// Open-loop SimNet clients: timeout/retry determinism under lossy seeded
// schedules, trace-hash reproducibility, and the direct-mode guard (client
// knobs must not perturb direct-mode results at all).
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/simnet.hpp"
#include "workload/driver.hpp"

namespace fides {
namespace {

workload::ExperimentConfig lossy_open_loop_config() {
  workload::ExperimentConfig cfg;
  cfg.cluster.num_servers = 4;
  cfg.cluster.items_per_shard = 1000;
  cfg.cluster.max_batch_size = 10;
  cfg.txns_per_block = 10;
  cfg.total_txns = 60;
  cfg.cluster.sign_data_path = false;
  cfg.cluster.network.mode = sim::NetworkMode::kSimulated;
  cfg.cluster.network.sim.seed = 77;
  cfg.cluster.network.sim.link.min_delay_us = 20.0;
  cfg.cluster.network.sim.link.max_delay_us = 400.0;
  cfg.cluster.network.sim.link.drop_prob = 0.05;
  cfg.cluster.network.sim.link.dup_prob = 0.02;
  cfg.cluster.network.sim.link.reorder_prob = 0.2;
  cfg.arrival.process = workload::ArrivalProcess::kPoisson;
  cfg.arrival.rate_tps = 3000.0;
  cfg.arrival.num_clients = 3;
  return cfg;
}

TEST(OpenLoop, DeterministicUnderDropAndReorder) {
  const workload::ExperimentConfig cfg = lossy_open_loop_config();
  const workload::ExperimentResult a = workload::run_experiment(cfg);
  const workload::ExperimentResult b = workload::run_experiment(cfg);

  EXPECT_TRUE(a.open_loop);
  // Everything the bench JSON gates exactly must reproduce bit-for-bit.
  EXPECT_EQ(a.committed_txns, b.committed_txns);
  EXPECT_EQ(a.aborted_txns, b.aborted_txns);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.span_ms, b.span_ms);
  EXPECT_EQ(a.throughput_tps, b.throughput_tps);
  EXPECT_EQ(a.client_sends, b.client_sends);
  EXPECT_EQ(a.client_retries, b.client_retries);
  EXPECT_EQ(a.dup_responses, b.dup_responses);
  EXPECT_EQ(a.net.messages, b.net.messages);
  EXPECT_EQ(a.net.bytes, b.net.bytes);
  EXPECT_TRUE(a.latency_hist == b.latency_hist);
  EXPECT_EQ(a.p50_ms, b.p50_ms);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.p999_ms, b.p999_ms);
  EXPECT_EQ(a.max_ms, b.max_ms);
}

TEST(OpenLoop, EveryTransactionGetsAResponseDespiteHeavyLoss) {
  workload::ExperimentConfig cfg = lossy_open_loop_config();
  cfg.cluster.network.sim.link.drop_prob = 0.3;
  cfg.client_model.retry_timeout_us = 2000.0;
  cfg.client_model.max_retries = 8;
  const workload::ExperimentResult r = workload::run_experiment(cfg);

  // SimNet delivery is reliable-eventual (final attempt is never dropped),
  // so every submit reaches the coordinator and every decision flows back:
  // each transaction records exactly one latency sample.
  EXPECT_EQ(r.latency_hist.count(), cfg.total_txns);
  EXPECT_EQ(r.committed_txns + r.aborted_txns, cfg.total_txns);
  // Aggressive timeouts against a lossy slow network must actually retry.
  EXPECT_GT(r.client_retries, 0u);
  EXPECT_GT(r.client_sends, static_cast<std::uint64_t>(cfg.total_txns));
  // Percentiles are populated and ordered.
  EXPECT_GT(r.p50_ms, 0.0);
  EXPECT_LE(r.p50_ms, r.p99_ms);
  EXPECT_LE(r.p99_ms, r.p999_ms);
  EXPECT_LE(r.p999_ms, r.max_ms);
}

// Drives run_open_loop directly (the driver hides its Cluster) so the SimNet
// trace hash itself can be compared: two same-seed runs must replay the
// identical event schedule, client timers and retries included.
sim::SimNet* manual_open_loop(Cluster& cluster, std::uint32_t num_clients,
                              std::size_t total_txns, std::size_t per_block,
                              OpenLoopOutcome* out) {
  std::vector<Client*> clients;
  for (std::uint32_t i = 0; i < num_clients; ++i) clients.push_back(&cluster.make_client());
  workload::YcsbWorkload wl({},
                            static_cast<std::uint64_t>(cluster.config().num_servers) *
                                cluster.config().items_per_shard,
                            cluster.config().seed);
  workload::ArrivalConfig arrival;
  arrival.process = workload::ArrivalProcess::kFixedRate;
  arrival.rate_tps = 5000.0;
  const std::vector<double> arrivals = workload::arrival_times_us(arrival, total_txns);

  commit::BatchBuilder batcher(per_block);
  std::vector<OpenLoopTxn> txns(total_txns);
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> index_of;
  for (std::size_t i = 0; i < total_txns; ++i) {
    if (i % per_block == 0) wl.begin_batch();
    Client& c = *clients[i % num_clients];
    commit::SignedEndTxn req = wl.run_transaction(c);
    index_of[{req.request.txn.id.client, req.request.txn.id.seq}] = i;
    txns[i] = OpenLoopTxn{c.id().value, arrivals[i], 0};
    batcher.enqueue(std::move(req));
  }
  std::vector<std::vector<commit::SignedEndTxn>> batches;
  while (!batcher.empty()) batches.push_back(batcher.next_batch());
  for (std::size_t k = 0; k < batches.size(); ++k) {
    for (const commit::SignedEndTxn& req : batches[k]) {
      txns.at(index_of.at({req.request.txn.id.client, req.request.txn.id.seq})).round = k;
    }
  }
  *out = cluster.run_open_loop(std::move(batches), std::move(txns), sim::ClientModel{});
  return cluster.simnet();
}

TEST(OpenLoop, TraceHashAndLatenciesReproduceAcrossRuns) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.items_per_shard = 500;
  cfg.max_batch_size = 8;
  cfg.sign_data_path = false;
  cfg.network.mode = sim::NetworkMode::kSimulated;
  cfg.network.sim.seed = 5;
  cfg.network.sim.link.drop_prob = 0.1;
  cfg.network.sim.link.reorder_prob = 0.3;

  Cluster c1(cfg), c2(cfg);
  OpenLoopOutcome o1, o2;
  const sim::SimNet* n1 = manual_open_loop(c1, 2, 40, 8, &o1);
  const sim::SimNet* n2 = manual_open_loop(c2, 2, 40, 8, &o2);

  EXPECT_EQ(n1->trace_hash(), n2->trace_hash());
  EXPECT_EQ(o1.latency_us, o2.latency_us);
  EXPECT_EQ(o1.client_sends, o2.client_sends);
  EXPECT_EQ(o1.client_retries, o2.client_retries);
  EXPECT_EQ(o1.span_us, o2.span_us);

  // A different network seed must yield a different schedule (the hash is
  // not a constant).
  ClusterConfig other = cfg;
  other.network.sim.seed = 6;
  Cluster c3(other);
  OpenLoopOutcome o3;
  const sim::SimNet* n3 = manual_open_loop(c3, 2, 40, 8, &o3);
  EXPECT_NE(n1->trace_hash(), n3->trace_hash());
}

TEST(OpenLoop, DirectModeIgnoresClientModelKnobs) {
  // network.mode=direct must produce bit-identical results whatever the
  // arrival/client knobs say — the open-loop machinery must not even
  // engage.
  workload::ExperimentConfig base;
  base.cluster.num_servers = 3;
  base.cluster.items_per_shard = 500;
  base.cluster.max_batch_size = 10;
  base.txns_per_block = 10;
  base.total_txns = 50;
  base.cluster.sign_data_path = false;

  workload::ExperimentConfig knobs = base;
  knobs.arrival.process = workload::ArrivalProcess::kPoisson;
  knobs.arrival.rate_tps = 123.0;
  knobs.arrival.num_clients = 9;
  knobs.client_model.retry_timeout_us = 1.0;
  knobs.client_model.max_retries = 99;

  const workload::ExperimentResult a = workload::run_experiment(base);
  const workload::ExperimentResult b = workload::run_experiment(knobs);

  EXPECT_FALSE(a.open_loop);
  EXPECT_FALSE(b.open_loop);
  // Compare the deterministic outputs; closed-loop latency is measured wall
  // time, so timing fields jitter run-to-run.
  EXPECT_EQ(a.committed_txns, b.committed_txns);
  EXPECT_EQ(a.aborted_txns, b.aborted_txns);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.net.messages, b.net.messages);
  EXPECT_EQ(a.net.bytes, b.net.bytes);
  EXPECT_EQ(a.net.signatures_created, b.net.signatures_created);
  EXPECT_EQ(a.latency_hist.count(), b.latency_hist.count());
  // The open-loop client machinery must not have engaged at all.
  EXPECT_EQ(b.client_sends, 0u);
  EXPECT_EQ(b.client_retries, 0u);
  EXPECT_EQ(b.span_ms, 0.0);
}

TEST(OpenLoop, RequiresSimulatedNetwork) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.items_per_shard = 100;
  Cluster cluster(cfg);  // direct mode
  EXPECT_THROW(cluster.run_open_loop({}, {}, sim::ClientModel{}), std::logic_error);
}

}  // namespace
}  // namespace fides

// Pipelined round-engine equivalence and checkpoint-metrics coverage.
//
// The engine contract (engine/pipeline.hpp): the same batch stream produces
// identical decisions, blocks, ledger state, and co-signs at every pipeline
// depth, under the in-process scheduler at any thread count AND over SimNet
// under reorder-heavy schedules — pipelining changes only when work runs,
// never what it computes. Batches are minted once against a pristine
// cluster and replayed on fresh clusters (client keys are deterministic per
// id, so signatures verify everywhere).
#include <gtest/gtest.h>

#include "fides/cluster.hpp"
#include "sim/simnet.hpp"
#include "workload/ycsb.hpp"

namespace fides {
namespace {

ClusterConfig base_config() {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.items_per_shard = 32;
  cfg.versioning = store::VersioningMode::kMulti;
  cfg.max_batch_size = 8;
  return cfg;
}

commit::SignedEndTxn simple_txn(Cluster& cluster, Client& client,
                                std::vector<ItemId> items, const std::string& tag) {
  ClientTxn txn = client.begin();
  cluster.client_begin(client, txn.id(), items);
  for (const ItemId item : items) {
    client.read(txn, item);
    client.write(txn, item, to_bytes(tag + "-" + std::to_string(item)));
  }
  return client.end(std::move(txn));
}

/// A deterministic multi-block batch stream minted on a throwaway cluster.
std::vector<std::vector<commit::SignedEndTxn>> mint_batches(const ClusterConfig& cfg,
                                                            std::size_t blocks,
                                                            std::size_t txns_per_block) {
  Cluster mint(cfg);
  Client& client = mint.make_client();
  workload::YcsbWorkload workload(
      {}, static_cast<std::uint64_t>(cfg.num_servers) * cfg.items_per_shard, cfg.seed);
  std::vector<std::vector<commit::SignedEndTxn>> batches;
  for (std::size_t b = 0; b < blocks; ++b) {
    workload.begin_batch();
    std::vector<commit::SignedEndTxn> batch;
    for (std::size_t i = 0; i < txns_per_block; ++i) {
      batch.push_back(workload.run_transaction(client));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct RunFingerprint {
  std::vector<ledger::Decision> decisions;
  std::vector<unsigned char> cosigns_valid;
  std::vector<std::size_t> log_sizes;
  std::vector<crypto::Digest> head_hashes;
  std::vector<crypto::Digest> merkle_roots;
  std::vector<crypto::Digest> block_digests;  // server 0's whole chain

  friend bool operator==(const RunFingerprint&, const RunFingerprint&) = default;
};

RunFingerprint replay(ClusterConfig cfg,
                      const std::vector<std::vector<commit::SignedEndTxn>>& batches) {
  Cluster cluster(cfg);
  cluster.make_client();  // registers the deterministic client key
  const PipelineResult result = cluster.run_blocks(batches);

  RunFingerprint fp;
  for (const RoundMetrics& m : result.rounds) {
    fp.decisions.push_back(m.decision);
    fp.cosigns_valid.push_back(m.cosign_valid ? 1 : 0);
  }
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    const Server& s = cluster.server(ServerId{i});
    fp.log_sizes.push_back(s.log().size());
    fp.head_hashes.push_back(s.log().head_hash());
    fp.merkle_roots.push_back(s.shard().merkle_root());
  }
  for (const auto& block : cluster.server(ServerId{0}).log().blocks()) {
    fp.block_digests.push_back(block.digest());
  }
  return fp;
}

TEST(EnginePipeline, DepthsProduceIdenticalLedgers) {
  const ClusterConfig cfg = base_config();
  const auto batches = mint_batches(cfg, 5, 4);

  ClusterConfig d1 = cfg;
  d1.pipeline_depth = 1;
  const RunFingerprint base = replay(d1, batches);
  ASSERT_EQ(base.decisions.size(), 5u);
  EXPECT_EQ(base.decisions[0], ledger::Decision::kCommit);

  for (const std::uint32_t depth : {2u, 4u, 8u}) {
    ClusterConfig cd = cfg;
    cd.pipeline_depth = depth;
    EXPECT_TRUE(replay(cd, batches) == base) << "depth " << depth;
  }
}

TEST(EnginePipeline, DepthsIdenticalAcrossThreadCounts) {
  const ClusterConfig cfg = base_config();
  const auto batches = mint_batches(cfg, 4, 4);

  ClusterConfig d1 = cfg;
  d1.pipeline_depth = 1;
  d1.num_threads = 1;
  const RunFingerprint base = replay(d1, batches);

  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    ClusterConfig cd = cfg;
    cd.pipeline_depth = 4;
    cd.num_threads = threads;
    EXPECT_TRUE(replay(cd, batches) == base) << threads << " threads";
  }
}

TEST(EnginePipeline, DepthsIdenticalOverSimNetReorderingSchedules) {
  // The gate that matters most: SimNet can deliver round k+1's get_vote
  // before round k's decision at a cohort; the engine must hold it back, so
  // the pipelined simulated ledger still matches direct depth-1 exactly.
  const ClusterConfig cfg = base_config();
  const auto batches = mint_batches(cfg, 4, 4);

  ClusterConfig d1 = cfg;
  d1.pipeline_depth = 1;
  const RunFingerprint base = replay(d1, batches);

  for (const std::uint64_t sim_seed : {1ULL, 7ULL, 99ULL}) {
    ClusterConfig cd = cfg;
    cd.pipeline_depth = 4;
    cd.network.mode = sim::NetworkMode::kSimulated;
    cd.network.sim.seed = sim_seed;
    cd.network.sim.link.min_delay_us = 10;
    cd.network.sim.link.max_delay_us = 900;  // wide window => heavy reorder
    cd.network.sim.link.drop_prob = 0.2;
    cd.network.sim.link.dup_prob = 0.2;
    EXPECT_TRUE(replay(cd, batches) == base) << "sim seed " << sim_seed;
  }
}

TEST(EnginePipeline, BatchVerifyLedgerIdenticalEverywhere) {
  // FIDES_BATCH_VERIFY changes which code path opens envelopes, never what
  // the ledger says: batched opens must be bit-identical to per-signature
  // opens across every scheduler (direct, in-process pool, SimNet), every
  // depth, and with speculation on.
  const ClusterConfig cfg = base_config();
  const auto batches = mint_batches(cfg, 4, 4);

  ClusterConfig off = cfg;
  off.pipeline_depth = 1;
  off.num_threads = 1;
  const RunFingerprint base = replay(off, batches);
  ASSERT_EQ(base.decisions.size(), 4u);

  // Direct scheduler, single thread.
  ClusterConfig direct = off;
  direct.batch_verify = true;
  EXPECT_TRUE(replay(direct, batches) == base) << "direct scheduler";

  // In-process scheduler: pipelined, multi-threaded — the inbox-batching
  // dispatch seam actually fires here.
  for (const std::uint32_t threads : {2u, 4u}) {
    ClusterConfig inproc = cfg;
    inproc.batch_verify = true;
    inproc.pipeline_depth = 4;
    inproc.num_threads = threads;
    EXPECT_TRUE(replay(inproc, batches) == base) << "inproc " << threads << " threads";
  }

  // SimNet under heavy reordering, with and without speculation.
  for (const bool speculate : {false, true}) {
    ClusterConfig sim = cfg;
    sim.batch_verify = true;
    sim.speculate = speculate;
    sim.pipeline_depth = 4;
    sim.network.mode = sim::NetworkMode::kSimulated;
    sim.network.sim.seed = 7;
    sim.network.sim.link.min_delay_us = 10;
    sim.network.sim.link.max_delay_us = 900;
    sim.network.sim.link.drop_prob = 0.2;
    sim.network.sim.link.dup_prob = 0.2;
    EXPECT_TRUE(replay(sim, batches) == base) << "simnet spec=" << speculate;
    sim.batch_verify = false;
    EXPECT_TRUE(replay(sim, batches) == base) << "simnet off spec=" << speculate;
  }
}

TEST(EnginePipeline, TwoPhaseCommitDepthsIdenticalToo) {
  ClusterConfig cfg = base_config();
  cfg.protocol = Protocol::kTwoPhaseCommit;
  const auto batches = mint_batches(cfg, 4, 4);

  ClusterConfig d1 = cfg;
  d1.pipeline_depth = 1;
  const RunFingerprint base = replay(d1, batches);

  ClusterConfig d4 = cfg;
  d4.pipeline_depth = 4;
  EXPECT_TRUE(replay(d4, batches) == base);

  ClusterConfig sim4 = d4;
  sim4.network.mode = sim::NetworkMode::kSimulated;
  sim4.network.sim.seed = 5;
  sim4.network.sim.link.max_delay_us = 700;
  sim4.network.sim.link.drop_prob = 0.15;
  EXPECT_TRUE(replay(sim4, batches) == base);
}

TEST(EnginePipeline, ConflictingBlocksAbortIdenticallyAtEveryDepth) {
  // Block 2 is stale once block 1 commits: the abort (co-signed abort
  // block) must land identically at every depth — ledger append order is
  // sequential, pipelined or not.
  const ClusterConfig cfg = base_config();
  std::vector<std::vector<commit::SignedEndTxn>> batches;
  {
    Cluster mint(cfg);
    Client& client = mint.make_client();
    auto t1 = simple_txn(mint, client, {5}, "x");
    auto t2 = simple_txn(mint, client, {5}, "y");
    auto t3 = simple_txn(mint, client, {9}, "z");
    batches.push_back({std::move(t1)});
    batches.push_back({std::move(t2)});
    batches.push_back({std::move(t3)});
  }

  ClusterConfig d1 = cfg;
  d1.pipeline_depth = 1;
  const RunFingerprint base = replay(d1, batches);
  ASSERT_EQ(base.decisions,
            (std::vector<ledger::Decision>{ledger::Decision::kCommit,
                                           ledger::Decision::kAbort,
                                           ledger::Decision::kCommit}));
  EXPECT_EQ(base.log_sizes[0], 3u);  // the abort block is logged and co-signed

  ClusterConfig d4 = cfg;
  d4.pipeline_depth = 4;
  EXPECT_TRUE(replay(d4, batches) == base);
}

TEST(EnginePipeline, ByzantineAttributionIdenticalAtDepth) {
  // A corrupt cosigner voids every round's co-sign, so no block is ever
  // appended and every partial block reuses height 0 — the engine must
  // still route rounds correctly (epoch tags, not heights) and attribute
  // the culprit identically at any depth.
  auto run = [](std::uint32_t depth) {
    ClusterConfig cfg = base_config();
    cfg.pipeline_depth = depth;
    Cluster cluster(cfg);
    Client& client = cluster.make_client();
    cluster.server(ServerId{2}).faults().cohort.corrupt_sch_response = true;
    std::vector<std::vector<commit::SignedEndTxn>> batches;
    batches.push_back({simple_txn(cluster, client, {0, 1}, "a")});
    batches.push_back({simple_txn(cluster, client, {2, 3}, "b")});
    batches.push_back({simple_txn(cluster, client, {4, 5}, "c")});
    const PipelineResult result = cluster.run_blocks(std::move(batches));
    std::vector<std::vector<ServerId>> faulty;
    for (const RoundMetrics& m : result.rounds) {
      EXPECT_FALSE(m.cosign_valid);
      faulty.push_back(m.faulty_cosigners);
    }
    EXPECT_EQ(cluster.server(ServerId{0}).log().size(), 0u);
    return faulty;
  };
  const auto seq = run(1);
  const auto pipe = run(4);
  ASSERT_EQ(seq.size(), 3u);
  for (const auto& f : seq) {
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f[0], ServerId{2});
  }
  EXPECT_EQ(pipe, seq);
}

TEST(EnginePipeline, PipelineResultReportsWallAndPerRoundMetrics) {
  ClusterConfig cfg = base_config();
  cfg.pipeline_depth = 2;
  const auto batches = mint_batches(cfg, 3, 2);
  Cluster cluster(cfg);
  cluster.make_client();
  const PipelineResult result = cluster.run_blocks(batches);
  ASSERT_EQ(result.rounds.size(), 3u);
  EXPECT_GT(result.wall_us, 0.0);
  for (const RoundMetrics& m : result.rounds) {
    EXPECT_EQ(m.txns_in_block, 2u);
    EXPECT_GT(m.coordinator_us, 0.0);
    EXPECT_GT(m.cohort_critical_us, 0.0);
    EXPECT_GT(m.measured_latency_us, 0.0);
  }
}

TEST(EnginePipeline, CheckpointMetricsPopulatedUniformly) {
  // The checkpoint path reports compute and measured latency like the
  // commit paths, in both direct and simulated modes.
  for (const bool simulated : {false, true}) {
    ClusterConfig cfg = base_config();
    if (simulated) {
      cfg.network.mode = sim::NetworkMode::kSimulated;
      cfg.network.sim.seed = 3;
    }
    Cluster cluster(cfg);
    Client& client = cluster.make_client();
    cluster.run_block({simple_txn(cluster, client, {0, 1}, "a")});

    const CheckpointOutcome outcome = cluster.run_checkpoint_round();
    ASSERT_TRUE(outcome.checkpoint.has_value()) << (simulated ? "sim" : "direct");
    EXPECT_EQ(outcome.checkpoint->height, 1u);
    EXPECT_TRUE(outcome.metrics.cosign_valid);
    EXPECT_GT(outcome.metrics.coordinator_us, 0.0);
    EXPECT_GT(outcome.metrics.cohort_critical_us, 0.0);
    EXPECT_GT(outcome.metrics.measured_latency_us, 0.0);
  }
}

TEST(EnginePipeline, CheckpointIdenticalAcrossSchedulersAfterPipelinedRun) {
  const ClusterConfig cfg = base_config();
  const auto batches = mint_batches(cfg, 3, 3);

  auto checkpoint_after = [&](ClusterConfig run_cfg) {
    Cluster cluster(run_cfg);
    cluster.make_client();
    cluster.run_blocks(batches);
    return cluster.create_checkpoint();
  };

  ClusterConfig d1 = cfg;
  d1.pipeline_depth = 1;
  const auto direct = checkpoint_after(d1);
  ASSERT_TRUE(direct.has_value());

  ClusterConfig sim4 = cfg;
  sim4.pipeline_depth = 4;
  sim4.network.mode = sim::NetworkMode::kSimulated;
  sim4.network.sim.seed = 11;
  sim4.network.sim.link.max_delay_us = 600;
  const auto simulated = checkpoint_after(sim4);
  ASSERT_TRUE(simulated.has_value());

  EXPECT_EQ(direct->height, simulated->height);
  EXPECT_TRUE(direct->head_hash == simulated->head_hash);
  // Deterministic nonces: even the aggregate signature bits match.
  EXPECT_TRUE(direct->cosign == simulated->cosign);
}

// --- Speculative pipelining ---------------------------------------------------

RunFingerprint replay_with_revotes(ClusterConfig cfg,
                                   const std::vector<std::vector<commit::SignedEndTxn>>& batches,
                                   std::size_t* revotes) {
  Cluster cluster(cfg);
  cluster.make_client();
  const PipelineResult result = cluster.run_blocks(batches);
  RunFingerprint fp;
  *revotes = 0;
  for (const RoundMetrics& m : result.rounds) {
    fp.decisions.push_back(m.decision);
    fp.cosigns_valid.push_back(m.cosign_valid ? 1 : 0);
    *revotes += m.spec_revotes;
  }
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    const Server& s = cluster.server(ServerId{i});
    fp.log_sizes.push_back(s.log().size());
    fp.head_hashes.push_back(s.log().head_hash());
    fp.merkle_roots.push_back(s.shard().merkle_root());
  }
  for (const auto& block : cluster.server(ServerId{0}).log().blocks()) {
    fp.block_digests.push_back(block.digest());
  }
  return fp;
}

TEST(EnginePipeline, SpeculationLedgerIdenticalAcrossDepthsAndThreads) {
  // The headline speculation contract: dropping the apply-watermark gate and
  // voting on pending overlays must be invisible in the committed ledger —
  // at every depth and thread count, co-sign bits included.
  const ClusterConfig cfg = base_config();
  const auto batches = mint_batches(cfg, 6, 4);

  ClusterConfig d1 = cfg;
  d1.pipeline_depth = 1;
  const RunFingerprint base = replay(d1, batches);
  ASSERT_EQ(base.decisions.size(), 6u);

  for (const std::uint32_t depth : {1u, 2u, 4u, 8u}) {
    for (const std::uint32_t threads : {1u, 0u}) {  // 0 = hardware concurrency
      ClusterConfig sp = cfg;
      sp.pipeline_depth = depth;
      sp.num_threads = threads;
      sp.speculate = true;
      EXPECT_TRUE(replay(sp, batches) == base)
          << "speculate depth " << depth << ", threads " << threads;
    }
  }
}

TEST(EnginePipeline, SpeculationLedgerIdenticalOverSimNet) {
  const ClusterConfig cfg = base_config();
  const auto batches = mint_batches(cfg, 5, 4);

  ClusterConfig d1 = cfg;
  d1.pipeline_depth = 1;
  const RunFingerprint base = replay(d1, batches);

  for (const std::uint64_t sim_seed : {1ULL, 7ULL, 99ULL}) {
    for (const std::uint32_t depth : {2u, 4u, 8u}) {
      ClusterConfig sp = cfg;
      sp.pipeline_depth = depth;
      sp.speculate = true;
      sp.network.mode = sim::NetworkMode::kSimulated;
      sp.network.sim.seed = sim_seed;
      sp.network.sim.link.min_delay_us = 10;
      sp.network.sim.link.max_delay_us = 900;  // wide window => heavy reorder
      sp.network.sim.link.drop_prob = 0.2;
      sp.network.sim.link.dup_prob = 0.2;
      EXPECT_TRUE(replay(sp, batches) == base)
          << "sim seed " << sim_seed << " depth " << depth;
    }
  }
}

TEST(EnginePipeline, MisSpeculatedRoundsRevoteToTheGatedLedger) {
  // Abort-heavy cross-shard schedule: block 1 aborts on shard 1's veto
  // (stale read of item 1) while shard 0 voted commit — so shard 0's
  // speculative vote for block 2 stacks block 1's write of item 4 that
  // never lands, votes abort on a phantom conflict, and must be discarded
  // and re-voted once the truth arrives. The committed ledger still has to
  // come out bit-identical to the lock-step run.
  const ClusterConfig cfg = base_config();
  std::vector<std::vector<commit::SignedEndTxn>> batches;
  {
    Cluster mint(cfg);
    Client& client = mint.make_client();
    auto t1 = simple_txn(mint, client, {0, 1}, "x");  // block 0: commits
    auto t2 = simple_txn(mint, client, {4, 1}, "y");  // block 1: shard 1 vetoes
    auto t3 = simple_txn(mint, client, {4}, "z");     // block 2: commits iff 1 aborted
    batches.push_back({std::move(t1)});
    batches.push_back({std::move(t2)});
    batches.push_back({std::move(t3)});
  }

  ClusterConfig d1 = cfg;
  d1.pipeline_depth = 1;
  std::size_t base_revotes = 0;
  const RunFingerprint base = replay_with_revotes(d1, batches, &base_revotes);
  ASSERT_EQ(base.decisions,
            (std::vector<ledger::Decision>{ledger::Decision::kCommit,
                                           ledger::Decision::kAbort,
                                           ledger::Decision::kCommit}));
  EXPECT_EQ(base_revotes, 0u);

  ClusterConfig sp = cfg;
  sp.pipeline_depth = 4;
  sp.speculate = true;
  std::size_t revotes = 0;
  EXPECT_TRUE(replay_with_revotes(sp, batches, &revotes) == base);
  EXPECT_GT(revotes, 0u) << "schedule was meant to force a mis-speculation";

  ClusterConfig sim = sp;
  sim.network.mode = sim::NetworkMode::kSimulated;
  sim.network.sim.seed = 21;
  sim.network.sim.link.max_delay_us = 700;
  sim.network.sim.link.dup_prob = 0.15;
  std::size_t sim_revotes = 0;
  EXPECT_TRUE(replay_with_revotes(sim, batches, &sim_revotes) == base);
  EXPECT_GT(sim_revotes, 0u);
}

TEST(EnginePipeline, SpeculationShowsRealOverlapOnTheVirtualClock) {
  // The point of the exercise: at depth 4 the vote exchange of round k+1
  // overlaps round k's challenge/response and decision legs, so SimNet
  // virtual time per round drops well below the lock-step engine's — the
  // old watermark-gated pipeline plateaued at ~1.19x regardless of depth.
  const ClusterConfig cfg = base_config();
  const auto batches = mint_batches(cfg, 12, 3);

  auto virtual_span = [&](std::uint32_t depth, bool speculate) {
    ClusterConfig run = cfg;
    run.pipeline_depth = depth;
    run.speculate = speculate;
    run.network.mode = sim::NetworkMode::kSimulated;
    run.network.sim.seed = 5;
    Cluster cluster(run);
    cluster.make_client();
    cluster.run_blocks(batches);
    return cluster.simnet()->now_us();
  };

  const double lockstep_d1 = virtual_span(1, false);
  const double spec_d4 = virtual_span(4, true);
  EXPECT_GE(lockstep_d1 / spec_d4, 1.5)
      << "lockstep depth1 " << lockstep_d1 << "us vs speculative depth4 "
      << spec_d4 << "us";
}

TEST(EnginePipeline, EpochsAdvancePerRound) {
  ClusterConfig cfg = base_config();
  Cluster cluster(cfg);
  Client& client = cluster.make_client();
  const std::uint64_t before = cluster.epochs().issued();
  std::vector<std::vector<commit::SignedEndTxn>> batches;
  batches.push_back({simple_txn(cluster, client, {0}, "a")});
  batches.push_back({simple_txn(cluster, client, {1}, "b")});
  cluster.run_blocks(std::move(batches));
  EXPECT_EQ(cluster.epochs().issued(), before + 2);
  cluster.create_checkpoint();
  EXPECT_EQ(cluster.epochs().issued(), before + 3);
}

}  // namespace
}  // namespace fides

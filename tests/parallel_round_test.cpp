// Parallel-vs-sequential equivalence of the commit-round engine.
//
// The contract (fides/cluster.hpp): a 1-thread and an N-thread run of the
// same batch produce identical decisions, blocks, and ledger state — the
// thread pool changes only wall-clock time. These tests drive matched
// cluster pairs through the same deterministic workloads and compare every
// observable: decisions, block digests, log head hashes, Merkle roots,
// stored values, cosign health, and fault attribution.
#include <gtest/gtest.h>

#include "fides/cluster.hpp"
#include "workload/ycsb.hpp"

namespace fides {
namespace {

ClusterConfig base_config(std::uint32_t num_threads) {
  ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.items_per_shard = 64;
  cfg.versioning = store::VersioningMode::kMulti;
  cfg.max_batch_size = 16;
  cfg.num_threads = num_threads;
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

/// Everything observable about a cluster's ledger + datastore state.
struct LedgerFingerprint {
  std::vector<std::size_t> log_sizes;
  std::vector<crypto::Digest> head_hashes;
  std::vector<crypto::Digest> merkle_roots;
  std::vector<crypto::Digest> block_digests;  // server 0's whole chain

  static LedgerFingerprint of(Cluster& cluster) {
    LedgerFingerprint fp;
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

  friend bool operator==(const LedgerFingerprint&, const LedgerFingerprint&) = default;
};

/// Runs `rounds` blocks of the same deterministic workload on a fresh
/// cluster and returns (per-round decisions, final fingerprint).
struct WorkloadOutcome {
  std::vector<ledger::Decision> decisions;
  LedgerFingerprint fingerprint;
  bool all_cosigns_valid{true};
};

WorkloadOutcome run_workload(ClusterConfig cfg, std::size_t rounds,
                             std::size_t txns_per_round) {
  Cluster cluster(cfg);
  Client& client = cluster.make_client();
  workload::YcsbWorkload workload(
      {}, static_cast<std::uint64_t>(cfg.num_servers) * cfg.items_per_shard, cfg.seed);

  WorkloadOutcome outcome;
  for (std::size_t r = 0; r < rounds; ++r) {
    workload.begin_batch();
    std::vector<commit::SignedEndTxn> batch;
    for (std::size_t i = 0; i < txns_per_round; ++i) {
      batch.push_back(workload.run_transaction(client));
    }
    const RoundMetrics metrics = cluster.run_block(std::move(batch));
    outcome.decisions.push_back(metrics.decision);
    if (cfg.protocol == Protocol::kTfCommit && !metrics.cosign_valid) {
      outcome.all_cosigns_valid = false;
    }
  }
  outcome.fingerprint = LedgerFingerprint::of(cluster);
  return outcome;
}

TEST(ParallelRound, TfCommitIdenticalAcrossThreadCounts) {
  const WorkloadOutcome seq = run_workload(base_config(1), 3, 8);
  ASSERT_TRUE(seq.all_cosigns_valid);
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    const WorkloadOutcome par = run_workload(base_config(threads), 3, 8);
    EXPECT_EQ(par.decisions, seq.decisions) << threads << " threads";
    EXPECT_TRUE(par.fingerprint == seq.fingerprint) << threads << " threads";
    EXPECT_TRUE(par.all_cosigns_valid);
  }
}

TEST(ParallelRound, TwoPhaseCommitIdenticalAcrossThreadCounts) {
  ClusterConfig seq_cfg = base_config(1);
  seq_cfg.protocol = Protocol::kTwoPhaseCommit;
  const WorkloadOutcome seq = run_workload(seq_cfg, 3, 8);

  ClusterConfig par_cfg = base_config(4);
  par_cfg.protocol = Protocol::kTwoPhaseCommit;
  const WorkloadOutcome par = run_workload(par_cfg, 3, 8);

  EXPECT_EQ(par.decisions, seq.decisions);
  EXPECT_TRUE(par.fingerprint == seq.fingerprint);
}

TEST(ParallelRound, AbortRoundsIdenticalToo) {
  // Conflicting pair: the second transaction is stale once the first
  // commits; both thread counts must abort the same block with the same
  // co-signed abort block in every log.
  auto run = [](std::uint32_t threads) {
    ClusterConfig cfg = base_config(threads);
    Cluster cluster(cfg);
    Client& client = cluster.make_client();
    auto t1 = simple_txn(cluster, client, {5}, "x");
    auto t2 = simple_txn(cluster, client, {5}, "y");
    const auto m1 = cluster.run_block({t1});
    const auto m2 = cluster.run_block({t2});
    return std::tuple(m1.decision, m2.decision, LedgerFingerprint::of(cluster));
  };
  const auto [seq1, seq2, seq_fp] = run(1);
  const auto [par1, par2, par_fp] = run(4);
  EXPECT_EQ(seq1, ledger::Decision::kCommit);
  EXPECT_EQ(seq2, ledger::Decision::kAbort);
  EXPECT_EQ(par1, seq1);
  EXPECT_EQ(par2, seq2);
  EXPECT_TRUE(par_fp == seq_fp);
}

TEST(ParallelRound, ByzantineAttributionIdentical) {
  // A cohort that corrupts its Schnorr response must be attributed
  // identically (same faulty-cosigner list, same invalid cosign) no matter
  // how many threads drive the round.
  auto run = [](std::uint32_t threads) {
    ClusterConfig cfg = base_config(threads);
    Cluster cluster(cfg);
    Client& client = cluster.make_client();
    cluster.server(ServerId{3}).faults().cohort.corrupt_sch_response = true;
    const auto metrics = cluster.run_block({simple_txn(cluster, client, {0, 1, 2}, "a")});
    return std::tuple(metrics.decision, metrics.cosign_valid, metrics.faulty_cosigners);
  };
  const auto [seq_dec, seq_valid, seq_faulty] = run(1);
  const auto [par_dec, par_valid, par_faulty] = run(4);
  EXPECT_FALSE(seq_valid);
  ASSERT_EQ(seq_faulty.size(), 1u);
  EXPECT_EQ(seq_faulty[0], ServerId{3});
  EXPECT_EQ(par_dec, seq_dec);
  EXPECT_EQ(par_valid, seq_valid);
  EXPECT_EQ(par_faulty, seq_faulty);
}

TEST(ParallelRound, RefusalsIdenticalUnderEquivocation) {
  // Lemma 5: an equivocating coordinator is refused by the victims. The
  // refusal set (and order) must not depend on the thread count.
  auto run = [](std::uint32_t threads) {
    ClusterConfig cfg = base_config(threads);
    Cluster cluster(cfg);
    Client& client = cluster.make_client();
    auto& faults = cluster.server(ServerId{0}).faults().coordinator;
    faults.equivocate = commit::CoordinatorFaults::Equivocation::kSameChallenge;
    faults.equivocation_victims = {2, 5};
    const auto metrics = cluster.run_block({simple_txn(cluster, client, {0, 1, 2}, "a")});
    return std::tuple(metrics.cosign_valid, metrics.refusals);
  };
  const auto [seq_valid, seq_refusals] = run(1);
  const auto [par_valid, par_refusals] = run(4);
  EXPECT_FALSE(seq_valid);
  EXPECT_FALSE(seq_refusals.empty());
  EXPECT_EQ(par_valid, seq_valid);
  EXPECT_EQ(par_refusals, seq_refusals);
}

TEST(ParallelRound, MeasuredLatencyAndThreadCountReported) {
  ClusterConfig cfg = base_config(4);
  Cluster cluster(cfg);
  Client& client = cluster.make_client();
  const auto metrics = cluster.run_block({simple_txn(cluster, client, {0, 1}, "a")});
  EXPECT_GT(metrics.measured_latency_us, 0.0);
  EXPECT_EQ(metrics.threads_used, 4u);

  ClusterConfig seq_cfg = base_config(1);
  Cluster seq_cluster(seq_cfg);
  Client& seq_client = seq_cluster.make_client();
  const auto seq_metrics =
      seq_cluster.run_block({simple_txn(seq_cluster, seq_client, {0, 1}, "a")});
  EXPECT_EQ(seq_metrics.threads_used, 1u);
  EXPECT_GT(seq_metrics.measured_latency_us, 0.0);
}

TEST(ParallelRound, CheckpointIdenticalAcrossThreadCounts) {
  auto run = [](std::uint32_t threads) {
    ClusterConfig cfg = base_config(threads);
    Cluster cluster(cfg);
    Client& client = cluster.make_client();
    cluster.run_block({simple_txn(cluster, client, {0, 1, 2, 3}, "a")});
    return cluster.create_checkpoint();
  };
  const auto seq = run(1);
  const auto par = run(4);
  ASSERT_TRUE(seq.has_value());
  ASSERT_TRUE(par.has_value());
  EXPECT_EQ(seq->height, par->height);
  EXPECT_TRUE(seq->head_hash == par->head_hash);
  // The co-sign itself is deterministic (derived nonces), so even the
  // aggregate signature bits must match.
  EXPECT_TRUE(seq->cosign == par->cosign);
}

TEST(ParallelRound, TransportOpenBatchMatchesSerialOpen) {
  Transport serial_t;
  Transport pooled_t;
  common::ThreadPool pool(4);
  const auto kp = crypto::KeyPair::deterministic(1);
  serial_t.register_node(NodeId::server(ServerId{0}), kp.public_key());
  pooled_t.register_node(NodeId::server(ServerId{0}), kp.public_key());

  std::vector<Envelope> envs;
  for (int i = 0; i < 12; ++i) {
    envs.push_back(serial_t.seal(kp, NodeId::server(ServerId{0}), "msg",
                                 to_bytes("payload-" + std::to_string(i))));
  }
  envs[3].payload[0] ^= 1;  // tampered
  envs[7].type = "other";   // type tag the signature does not cover

  // open_batch checks each envelope against its own type tag, so the serial
  // oracle is open(e, e.type).
  std::vector<unsigned char> expected;
  for (const auto& e : envs) expected.push_back(serial_t.open(e, e.type) ? 1 : 0);
  std::vector<const Envelope*> ptrs;
  for (const auto& e : envs) ptrs.push_back(&e);
  const std::vector<unsigned char> actual = pooled_t.open_batch(ptrs, &pool);
  EXPECT_EQ(actual, expected);
  // Same verification/rejection accounting as the serial path.
  EXPECT_EQ(pooled_t.stats().signatures_verified.load(),
            serial_t.stats().signatures_verified.load());
  EXPECT_EQ(pooled_t.stats().rejected.load(), serial_t.stats().rejected.load());
  EXPECT_EQ(pooled_t.stats().rejected.load(), 2u);
}

TEST(ParallelRound, TransportOpenBatchMixedBatchesAcrossPoolWidths) {
  // Rejection accounting under concurrency: batches mixing every failure
  // mode (tampered payload, wrong type tag, unregistered sender, spoofed
  // sender) must produce the same per-slot verdicts and the same
  // verified/rejected counters as a serial open() loop, at every pool width.
  const auto kp = crypto::KeyPair::deterministic(1);
  const auto rogue = crypto::KeyPair::deterministic(2);  // never registered
  Rng rng(0xBA7C4);

  for (const std::size_t width : {2u, 4u, 8u}) {
    Transport serial_t;
    Transport pooled_t;
    common::ThreadPool pool(width);
    serial_t.register_node(NodeId::server(ServerId{0}), kp.public_key());
    pooled_t.register_node(NodeId::server(ServerId{0}), kp.public_key());

    std::vector<Envelope> envs;
    std::size_t expected_rejections = 0;
    for (int i = 0; i < 64; ++i) {
      Envelope env = serial_t.seal(kp, NodeId::server(ServerId{0}), "msg",
                                   to_bytes("payload-" + std::to_string(i)));
      switch (rng.uniform(5)) {
        case 0:  // valid
          break;
        case 1:  // tampered payload
          env.payload[rng.uniform(env.payload.size())] ^= 0x40;
          ++expected_rejections;
          break;
        case 2:  // type tag the signature does not cover
          env.type = "other";
          ++expected_rejections;
          break;
        case 3:  // unregistered sender
          env = serial_t.seal(rogue, NodeId::server(ServerId{9}), "msg",
                              to_bytes("rogue-" + std::to_string(i)));
          ++expected_rejections;
          break;
        case 4:  // spoofed sender id (signature bound to the real sender)
          env = serial_t.seal(rogue, NodeId::server(ServerId{9}), "msg",
                              to_bytes("spoof-" + std::to_string(i)));
          env.sender = NodeId::server(ServerId{0});
          ++expected_rejections;
          break;
      }
      envs.push_back(std::move(env));
    }

    std::vector<unsigned char> expected;
    const auto serial_before_verified = serial_t.stats().signatures_verified.load();
    for (const auto& e : envs) expected.push_back(serial_t.open(e, e.type) ? 1 : 0);
    std::vector<const Envelope*> ptrs;
    for (const auto& e : envs) ptrs.push_back(&e);
    const std::vector<unsigned char> actual = pooled_t.open_batch(ptrs, &pool);

    EXPECT_EQ(actual, expected) << "pool width " << width;
    EXPECT_EQ(pooled_t.stats().rejected.load(), expected_rejections);
    EXPECT_EQ(pooled_t.stats().rejected.load(), serial_t.stats().rejected.load());
    EXPECT_EQ(pooled_t.stats().signatures_verified.load(),
              serial_t.stats().signatures_verified.load() - serial_before_verified);
  }
}

TEST(ParallelRound, TransportOpenBatchHeterogeneousTypes) {
  // open_batch takes envelopes of mixed types (each checked against its own
  // env.type): one RLC aggregate over a whole coordinator inbox of votes,
  // responses, and 2PC messages.
  Transport serial_t;
  Transport batched_t;
  common::ThreadPool pool(4);
  const auto kp = crypto::KeyPair::deterministic(1);
  serial_t.register_node(NodeId::server(ServerId{0}), kp.public_key());
  batched_t.register_node(NodeId::server(ServerId{0}), kp.public_key());

  const char* types[] = {"tf_vote", "tf_response", "2pc_vote"};
  std::vector<Envelope> envs;
  for (int i = 0; i < 24; ++i) {
    envs.push_back(serial_t.seal(kp, NodeId::server(ServerId{0}), types[i % 3],
                                 to_bytes("payload-" + std::to_string(i))));
  }
  envs[5].payload[0] ^= 1;  // tampered
  envs[9].sender = NodeId::server(ServerId{7});  // unregistered sender

  std::vector<unsigned char> expected;
  std::vector<const Envelope*> ptrs;
  for (const auto& e : envs) {
    expected.push_back(serial_t.open(e, e.type) ? 1 : 0);
    ptrs.push_back(&e);
  }
  const std::vector<unsigned char> actual = batched_t.open_batch(ptrs, &pool);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(batched_t.stats().signatures_verified.load(),
            serial_t.stats().signatures_verified.load());
  EXPECT_EQ(batched_t.stats().rejected.load(), serial_t.stats().rejected.load());
}

TEST(ParallelRound, ParallelMerkleBuildMatchesSerial) {
  common::ThreadPool pool(4);
  std::vector<crypto::Digest> leaves;
  for (std::size_t i = 0; i < 5000; ++i) {
    leaves.push_back(crypto::sha256(to_bytes("leaf-" + std::to_string(i))));
  }
  const merkle::MerkleTree serial(leaves);
  const merkle::MerkleTree parallel(leaves, &pool);
  EXPECT_TRUE(serial.root() == parallel.root());
  EXPECT_EQ(serial.depth(), parallel.depth());
  EXPECT_EQ(serial.sibling_path(4999), parallel.sibling_path(4999));
}

}  // namespace
}  // namespace fides

// Integration tests for the Fides system layer: transport, server, client,
// cluster rounds, fault injection at the execution/datastore layers.
#include <gtest/gtest.h>

#include <set>

#include "audit/auditor.hpp"
#include "fides/cluster.hpp"
#include "ordserv/group_engine.hpp"
#include "workload/ycsb.hpp"

namespace fides {
namespace {

ClusterConfig small_config() {
  ClusterConfig cfg;
  cfg.num_servers = 3;
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

TEST(Transport, NodeIdHashMixesKindIntoEveryWord) {
  const std::hash<NodeId> h;
  // Deterministic and kind-sensitive: a server and a client with the same
  // numeric id must not collide.
  EXPECT_EQ(h(NodeId::server(ServerId{5})), h(NodeId::server(ServerId{5})));
  EXPECT_NE(h(NodeId::server(ServerId{5})), h(NodeId::client(ClientId{5})));
  // The old hash shifted the kind by 32 inside size_t — UB and a guaranteed
  // collision where size_t is 32-bit. The mix must fold the kind into the
  // low 32 bits so even a truncated result separates kinds.
  for (std::uint32_t id : {0u, 1u, 7u, 1000u}) {
    EXPECT_NE(static_cast<std::uint32_t>(h(NodeId::server(ServerId{id}))),
              static_cast<std::uint32_t>(h(NodeId::client(ClientId{id}))))
        << "id " << id;
  }
  // No collisions across a realistic address space.
  std::set<std::size_t> hashes;
  for (std::uint32_t id = 0; id < 1000; ++id) {
    hashes.insert(h(NodeId::server(ServerId{id})));
    hashes.insert(h(NodeId::client(ClientId{id})));
  }
  EXPECT_EQ(hashes.size(), 2000u);
}

TEST(Transport, SealOpenRoundTrip) {
  Transport t;
  const auto kp = crypto::KeyPair::deterministic(1);
  t.register_node(NodeId::server(ServerId{0}), kp.public_key());
  Envelope env = t.seal(kp, NodeId::server(ServerId{0}), "msg", to_bytes("hello"));
  EXPECT_TRUE(t.open(env, "msg"));
  EXPECT_EQ(t.stats().messages, 1u);
  EXPECT_EQ(t.stats().signatures_verified, 1u);
}

TEST(Transport, RejectsTamperedPayload) {
  Transport t;
  const auto kp = crypto::KeyPair::deterministic(1);
  t.register_node(NodeId::server(ServerId{0}), kp.public_key());
  Envelope env = t.seal(kp, NodeId::server(ServerId{0}), "msg", to_bytes("hello"));
  env.payload[0] ^= 1;
  EXPECT_FALSE(t.open(env, "msg"));
  EXPECT_EQ(t.stats().rejected, 1u);
}

TEST(Transport, RejectsWrongTypeAndUnknownSender) {
  Transport t;
  const auto kp = crypto::KeyPair::deterministic(1);
  t.register_node(NodeId::server(ServerId{0}), kp.public_key());
  Envelope env = t.seal(kp, NodeId::server(ServerId{0}), "msg", to_bytes("x"));
  EXPECT_FALSE(t.open(env, "other"));  // type tag mismatch
  Envelope forged = env;
  forged.sender = NodeId::server(ServerId{7});  // not registered
  EXPECT_FALSE(t.open(forged, "msg"));
}

TEST(Transport, RejectsSenderSpoofing) {
  // A registered node must not be able to pass off its envelope as another
  // registered node's — the sender id is bound into the signature.
  Transport t;
  const auto kp0 = crypto::KeyPair::deterministic(1);
  const auto kp1 = crypto::KeyPair::deterministic(2);
  t.register_node(NodeId::server(ServerId{0}), kp0.public_key());
  t.register_node(NodeId::server(ServerId{1}), kp1.public_key());
  Envelope env = t.seal(kp0, NodeId::server(ServerId{0}), "msg", to_bytes("x"));
  env.sender = NodeId::server(ServerId{1});
  EXPECT_FALSE(t.open(env, "msg"));
}

TEST(Cluster, UnsignedDataPathStillCountsAndRoundsStillSign) {
  // sign_data_path = false: begin/read/write and their replies are counted
  // as messages but carry no signature either way, while the commit round
  // that follows signs and verifies as always.
  ClusterConfig cfg = small_config();
  cfg.sign_data_path = false;
  Cluster cluster(cfg);
  Client& client = cluster.make_client();
  const auto txn = simple_txn(cluster, client, {0, 1}, "a");
  const Transport::Stats& stats = cluster.transport().stats();
  EXPECT_EQ(stats.messages, 10u);  // 2 begins, 2 reads + replies, 2 writes + acks
  EXPECT_EQ(stats.signatures_created, 0u);
  EXPECT_EQ(stats.signatures_verified, 0u);

  const auto metrics = cluster.run_block({txn});
  EXPECT_EQ(metrics.decision, ledger::Decision::kCommit);
  EXPECT_GT(stats.signatures_created, 0u);
  EXPECT_GT(stats.signatures_verified, 0u);
}

TEST(Cluster, TouchingRequestChecksAgreeWithAndWithoutBatchVerify) {
  // Five requests from one client, each touching server 0's shard.
  std::vector<commit::SignedEndTxn> valid;
  {
    Cluster mint(small_config());
    Client& client = mint.make_client();
    for (ItemId item = 0; valid.size() < 5; ++item) {
      if (mint.owner_of(item) != ServerId{0}) continue;
      valid.push_back(simple_txn(mint, client, {item}, "t"));
    }
  }
  struct Case {
    std::string name;
    std::vector<commit::SignedEndTxn> requests;
    bool verdict;
    std::uint64_t verified;  // counted up to and including the first failure
  };
  std::vector<Case> cases{{"all valid", valid, true, 5}};
  for (std::size_t pos = 0; pos < valid.size(); ++pos) {
    Case forged{"forged at " + std::to_string(pos), valid, false, pos + 1};
    forged.requests[pos].request.txn.commit_ts.logical += 1;
    cases.push_back(std::move(forged));
    Case unknown{"unregistered client at " + std::to_string(pos), valid, false, pos + 1};
    unknown.requests[pos].client = ClientId{7};
    cases.push_back(std::move(unknown));
  }
  for (const bool batch_verify : {false, true}) {
    for (const Case& c : cases) {
      ClusterConfig cfg = small_config();
      cfg.batch_verify = batch_verify;
      Cluster cluster(cfg);
      cluster.make_client();  // registers the same deterministic client key
      EXPECT_EQ(verify_touching_requests(cluster.transport(), cluster.server(ServerId{0}),
                                         c.requests),
                c.verdict)
          << c.name << ", batch_verify " << batch_verify;
      EXPECT_EQ(cluster.transport().stats().signatures_verified, c.verified)
          << c.name << ", batch_verify " << batch_verify;
    }
  }
}

TEST(Cluster, TfCommitRoundCommitsAndReplicatesLog) {
  Cluster cluster(small_config());
  Client& client = cluster.make_client();
  const auto metrics =
      cluster.run_block({simple_txn(cluster, client, {0, 1, 2}, "a")});
  EXPECT_EQ(metrics.decision, ledger::Decision::kCommit);
  EXPECT_TRUE(metrics.cosign_valid);

  // Every server appended the same block; datastores agree with the writes.
  const auto head = cluster.server(ServerId{0}).log().head_hash();
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    const Server& s = cluster.server(ServerId{i});
    EXPECT_EQ(s.log().size(), 1u);
    EXPECT_EQ(s.log().head_hash(), head);
  }
  EXPECT_EQ(to_string(cluster.server(cluster.owner_of(0)).shard().peek(0).value),
            "a-0");
}

TEST(Cluster, ClientVerifiesCosignOnDecision) {
  Cluster cluster(small_config());
  Client& client = cluster.make_client();
  cluster.run_block({simple_txn(cluster, client, {0}, "a")});
  const ledger::Block& block = cluster.server(ServerId{0}).log().at(0);
  EXPECT_TRUE(client.accept_decision(block, cluster.server_keys()));

  ledger::Block tampered = block;
  tampered.decision = ledger::Decision::kAbort;
  EXPECT_FALSE(client.accept_decision(tampered, cluster.server_keys()));
}

TEST(Cluster, DataPathRefusesEnvelopesUnderTheWrongKey) {
  // The transport knows the client under a key it does not sign with: every
  // data-path request fails verification, and the caller sees an error, not
  // a default read result or write ack. The server records nothing.
  Cluster cluster(small_config());
  Client& client = cluster.make_client();
  const ItemId item = 0;
  const Server& owner = cluster.server(cluster.owner_of(item));
  cluster.transport().register_node(NodeId::client(client.id()),
                                    crypto::KeyPair::deterministic(0xBAD).public_key());
  const std::uint64_t rejected = cluster.transport().stats().rejected;
  ClientTxn txn = client.begin();
  EXPECT_THROW(cluster.client_begin(client, txn.id(), std::vector<ItemId>{item}),
               DataPathError);
  EXPECT_THROW(client.read(txn, item), DataPathError);
  EXPECT_THROW(client.write(txn, item, to_bytes("x")), DataPathError);
  EXPECT_EQ(cluster.transport().stats().rejected, rejected + 3);
  EXPECT_TRUE(owner.client_message_log().empty());

  // Under the right key the request passes, but a reply signed by the owner
  // fails when the transport holds a wrong key for the server.
  cluster.transport().register_node(NodeId::client(client.id()),
                                    client.keypair().public_key());
  cluster.transport().register_node(NodeId::server(owner.id()),
                                    crypto::KeyPair::deterministic(0xBAD).public_key());
  ClientTxn next = client.begin();
  EXPECT_THROW(client.read(next, item), DataPathError);
  EXPECT_EQ(owner.client_message_log().size(), 1u);
}

TEST(Cluster, SequentialBlocksChain) {
  Cluster cluster(small_config());
  Client& client = cluster.make_client();
  for (int i = 0; i < 3; ++i) {
    const auto metrics = cluster.run_block(
        {simple_txn(cluster, client, {static_cast<ItemId>(i)}, "t" + std::to_string(i))});
    EXPECT_EQ(metrics.decision, ledger::Decision::kCommit);
  }
  const auto& log = cluster.server(ServerId{1}).log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.at(1).prev_hash, log.at(0).digest());
  EXPECT_EQ(log.at(2).prev_hash, log.at(1).digest());
}

TEST(Cluster, ConflictingSecondTransactionAborts) {
  Cluster cluster(small_config());
  Client& client = cluster.make_client();
  // Both transactions executed (read) before either commits: the second is
  // stale by the time its block runs.
  auto t1 = simple_txn(cluster, client, {5}, "x");
  auto t2 = simple_txn(cluster, client, {5}, "y");
  EXPECT_EQ(cluster.run_block({t1}).decision, ledger::Decision::kCommit);
  EXPECT_EQ(cluster.run_block({t2}).decision, ledger::Decision::kAbort);
  // The abort block is still logged and co-signed.
  const auto& log = cluster.server(ServerId{0}).log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_FALSE(log.at(1).committed());
  EXPECT_TRUE(log.at(1).cosign.has_value());
}

// Regression: a coordinator whose challenge fan-out is neither a broadcast
// (1 message) nor one per cohort (n) drove the reactor's per-cohort
// challenge indexing past the end of the envelope vector. The round must be
// refused instead: unsigned, nothing appended or sequenced, and the rounds
// after it unaffected.
TEST(Cluster, MalformedChallengeFanOutRefusesGlobalRound) {
  for (const bool simulated : {false, true}) {
    for (const std::uint32_t depth : {1u, 4u}) {
      const std::string what =
          std::string(simulated ? "simnet" : "in-process") + " depth " + std::to_string(depth);
      ClusterConfig cfg = small_config();
      cfg.pipeline_depth = depth;
      cfg.speculate = depth > 1;
      if (simulated) cfg.network.mode = sim::NetworkMode::kSimulated;
      Cluster cluster(cfg);
      Client& client = cluster.make_client();
      const auto a = simple_txn(cluster, client, {0, 1, 2}, "a");
      const auto b = simple_txn(cluster, client, {3, 4}, "b");

      // 3 cohorts, 2 challenges.
      cluster.server(ServerId{0}).faults().coordinator.drop_last_challenge = true;
      const PipelineResult refused = cluster.run_blocks({{a}, {b}});
      ASSERT_EQ(refused.rounds.size(), 2u) << what;
      for (const RoundMetrics& m : refused.rounds) {
        EXPECT_FALSE(m.cosign_valid) << what;
        EXPECT_EQ(m.decision, ledger::Decision::kAbort) << what;
      }
      for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
        EXPECT_EQ(cluster.server(ServerId{i}).log().size(), 0u) << what << " S" << i;
      }

      cluster.server(ServerId{0}).faults().coordinator.drop_last_challenge = false;
      const RoundMetrics next = cluster.run_block({simple_txn(cluster, client, {0, 1}, "c")});
      EXPECT_TRUE(next.cosign_valid) << what;
      EXPECT_EQ(next.decision, ledger::Decision::kCommit) << what;
      for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
        EXPECT_EQ(cluster.server(ServerId{i}).log().size(), 1u) << what << " S" << i;
      }
    }
  }
}

TEST(Cluster, MalformedChallengeFanOutRefusesGroupRound) {
  for (const bool simulated : {false, true}) {
    for (const std::uint32_t depth : {1u, 4u}) {
      const std::string what =
          std::string(simulated ? "simnet" : "in-process") + " depth " + std::to_string(depth);
      ClusterConfig cfg = small_config();
      cfg.pipeline_depth = depth;
      cfg.speculate = depth > 1;
      if (simulated) cfg.network.mode = sim::NetworkMode::kSimulated;
      Cluster cluster(cfg);
      Client& client = cluster.make_client();
      // Group {0,1,2} is coordinated by the faulty S0; group {1,2} by S1.
      const auto a = simple_txn(cluster, client, {0, 1, 2}, "a");
      const auto b = simple_txn(cluster, client, {4, 5}, "b");
      cluster.server(ServerId{0}).faults().coordinator.drop_last_challenge = true;

      ordserv::Sequencer seq;
      const ordserv::GroupRunResult result = cluster.run_group_blocks(seq, {{a}, {b}});
      ASSERT_EQ(result.rounds.size(), 2u) << what;
      EXPECT_EQ(result.rounds[0].fault,
                "coordinator challenge fan-out mismatch (2 messages for 3 cohorts)")
          << what;
      EXPECT_FALSE(result.rounds[0].cosign_valid) << what;
      EXPECT_TRUE(result.rounds[1].cosign_valid) << what;
      EXPECT_EQ(result.rounds[1].decision, ledger::Decision::kCommit) << what;
      ASSERT_EQ(seq.size(), 1u) << what;  // only the honest round was sequenced
      EXPECT_EQ(result.rounds[1].global_height, 0u) << what;
      for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
        EXPECT_EQ(cluster.server(ServerId{i}).log().size(), 1u) << what << " S" << i;
      }
    }
  }
}

TEST(Cluster, SpeculativeGroupRoundsOnParallelSchedulerMatchLockStep) {
  // Group-round reactors run outside the group engine's lock, so under a
  // multi-threaded in-process scheduler different coordinators' handlers,
  // posted starts and base resolutions run concurrently. The sequenced
  // stream and every replicated ledger must still equal a depth-1,
  // one-thread run.
  const auto run = [](std::uint32_t depth, bool spec, std::uint32_t threads) {
    ClusterConfig cfg = small_config();
    cfg.pipeline_depth = depth;
    cfg.speculate = spec;
    cfg.num_threads = threads;
    Cluster cluster(cfg);
    Client& client = cluster.make_client();
    std::vector<std::vector<commit::SignedEndTxn>> batches;
    batches.push_back({simple_txn(cluster, client, {0, 1}, "a")});  // {0,1}
    batches.push_back({simple_txn(cluster, client, {2}, "b")});     // {2}
    batches.push_back({simple_txn(cluster, client, {4, 5}, "c")});  // {1,2}
    batches.push_back({simple_txn(cluster, client, {3}, "d")});     // {0}
    batches.push_back({simple_txn(cluster, client, {6, 7, 8}, "e")});
    ordserv::Sequencer seq;
    cluster.run_group_blocks(seq, std::move(batches));
    std::vector<Bytes> fp;
    fp.reserve(seq.size() + cluster.num_servers());
    for (const ordserv::SequencedBlock& e : seq.stream()) fp.push_back(e.block.serialize());
    for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
      fp.push_back(cluster.server(ServerId{i}).log().head_hash().to_bytes());
    }
    return fp;
  };
  const auto base = run(1, false, 1);
  EXPECT_EQ(run(4, true, 4), base);
  EXPECT_EQ(run(4, false, 4), base);
}

TEST(Cluster, TwoPhaseCommitRoundWorks) {
  ClusterConfig cfg = small_config();
  cfg.protocol = Protocol::kTwoPhaseCommit;
  Cluster cluster(cfg);
  Client& client = cluster.make_client();
  const auto metrics = cluster.run_block({simple_txn(cluster, client, {0, 1}, "a")});
  EXPECT_EQ(metrics.decision, ledger::Decision::kCommit);
  const auto& log = cluster.server(ServerId{2}).log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(log.at(0).cosign.has_value());
}

TEST(Cluster, MetricsPopulated) {
  Cluster cluster(small_config());
  Client& client = cluster.make_client();
  const auto metrics = cluster.run_block({simple_txn(cluster, client, {0, 1}, "a")});
  EXPECT_GT(metrics.coordinator_us, 0.0);
  EXPECT_GT(metrics.cohort_critical_us, 0.0);
  EXPECT_GT(metrics.measured_latency_us, 0.0);
  EXPECT_EQ(metrics.txns_in_block, 1u);
  EXPECT_GT(cluster.transport().stats().messages, 0u);
}

TEST(Cluster, ServerKeepsClientMessageLog) {
  Cluster cluster(small_config());
  Client& client = cluster.make_client();
  simple_txn(cluster, client, {0}, "a");
  // Item 0 lives on server 0: begin + read + write recorded.
  EXPECT_GE(cluster.server(ServerId{0}).client_message_log().size(), 3u);
}

TEST(Server, ReadFaultStaleValue) {
  ClusterConfig cfg = small_config();
  Cluster cluster(cfg);
  Client& client = cluster.make_client();
  // Commit an honest write first so there is a previous version.
  cluster.run_block({simple_txn(cluster, client, {0}, "v1")});
  cluster.run_block({simple_txn(cluster, client, {0}, "v2")});

  Server& owner = cluster.server(cluster.owner_of(0));
  owner.faults().read_fault = ReadFault::kStaleValue;
  const auto result = owner.handle_read(client.id(), TxnId{0, 99}, 0);
  EXPECT_NE(to_string(result.value), "v2-0");           // not the current value
  EXPECT_EQ(result.wts, owner.shard().peek(0).wts);     // timestamps up to date
}

TEST(Server, ReadFaultGarbageValueScopedToItem) {
  Cluster cluster(small_config());
  Client& client = cluster.make_client();
  Server& owner = cluster.server(cluster.owner_of(0));
  owner.faults().read_fault = ReadFault::kGarbageValue;
  owner.faults().read_fault_item = 0;
  EXPECT_EQ(to_string(owner.handle_read(client.id(), TxnId{0, 1}, 0).value), "garbage");
  // Another item on the same shard is served honestly.
  const ItemId other = cluster.num_servers() + 0;  // next item on shard 0
  EXPECT_EQ(to_string(owner.handle_read(client.id(), TxnId{0, 1}, other).value), "0");
}

TEST(Server, SkipWriteFaultLeavesStaleDatastoreButHonestRoot) {
  Cluster cluster(small_config());
  Client& client = cluster.make_client();
  Server& owner = cluster.server(cluster.owner_of(0));
  owner.faults().skip_write_item = 0;

  cluster.run_block({simple_txn(cluster, client, {0}, "new")});
  // The block committed with a root reflecting the write...
  EXPECT_EQ(owner.log().size(), 1u);
  EXPECT_TRUE(owner.log().at(0).committed());
  // ...but the live value silently kept its old content.
  EXPECT_EQ(to_string(owner.shard().peek(0).value), "0");
}

TEST(Server, AuditItemProofAuthenticatesHonestState) {
  Cluster cluster(small_config());
  Client& client = cluster.make_client();
  cluster.run_block({simple_txn(cluster, client, {0}, "x")});
  Server& owner = cluster.server(cluster.owner_of(0));
  const ledger::Block& block = owner.log().at(0);
  const Timestamp version = block.txns[0].commit_ts;
  const ItemId item = 0;
  const std::vector<AuditItemProof> proofs = owner.audit_items(std::span(&item, 1), version);
  ASSERT_EQ(proofs.size(), 1u);
  const AuditItemProof& proof = proofs.front();
  EXPECT_EQ(proof.id, item);
  EXPECT_EQ(to_string(proof.value), "x-0");
  EXPECT_TRUE(merkle::verify_vo(store::item_leaf_digest(0, proof.value), proof.vo,
                                *block.root_of(owner.id())));
}

// A client-signed request whose write set names one item twice: every owner
// votes abort, so no server applies the item twice at one commit timestamp
// (a multi-versioned chain would refuse the second append mid-apply, after
// the block is logged; a single-versioned store would commit a history the
// audit flags as a WW-conflict).
TEST(Server, DuplicateWriteEntryAborts) {
  for (const store::VersioningMode mode :
       {store::VersioningMode::kMulti, store::VersioningMode::kSingle}) {
    const char* name = mode == store::VersioningMode::kMulti ? "multi" : "single";
    ClusterConfig cfg = small_config();
    cfg.versioning = mode;
    Cluster cluster(cfg);
    Client& client = cluster.make_client();
    commit::SignedEndTxn req = simple_txn(cluster, client, {0, 1}, "x");
    txn::WriteEntry repeat = req.request.txn.rw.writes.front();
    repeat.new_value = to_bytes("again");
    req.request.txn.rw.writes.push_back(std::move(repeat));
    req.signature = client.keypair().sign(req.request.serialize());

    RoundMetrics metrics;
    ASSERT_NO_THROW(metrics = cluster.run_block({req})) << name;
    EXPECT_EQ(metrics.decision, ledger::Decision::kAbort) << name;
    const crypto::Digest head = cluster.server(ServerId{0}).log().head_hash();
    for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
      const Server& server = cluster.server(ServerId{i});
      EXPECT_EQ(server.log().size(), 1u) << name << " S" << i;
      EXPECT_EQ(server.log().head_hash(), head) << name << " S" << i;
    }
    EXPECT_EQ(to_string(cluster.server(cluster.owner_of(0)).shard().peek(0).value), "0")
        << name;

    const audit::AuditReport report = audit::Auditor(cluster).run();
    EXPECT_TRUE(report.clean()) << name << ": " << report.to_string();
  }
}

TEST(Server, RejectsDecisionWithInvalidCosign) {
  Cluster cluster(small_config());
  Client& client = cluster.make_client();
  cluster.run_block({simple_txn(cluster, client, {0}, "x")});
  Server& server = cluster.server(ServerId{1});

  ledger::Block forged = server.log().at(0);
  forged.height = 1;
  forged.prev_hash = server.log().head_hash();
  forged.txns[0].rw.writes[0].new_value = to_bytes("evil");
  // Old cosign no longer matches the altered contents.
  EXPECT_EQ(server.apply_decision(forged, Server::CosignView::kChained,
                                  cluster.server_keys()),
            Server::ApplyResult::kRejected);
  EXPECT_EQ(server.log().size(), 1u);  // nothing appended
}

TEST(Server, RefusesTwoPhaseDecisionWithBrokenChain) {
  // 2PC decisions carry no co-sign, but the chain check still guards the
  // log: a decision at the log's height whose prev-hash is not the log head
  // is refused, not handed to the log's append discipline (which throws).
  ClusterConfig cfg = small_config();
  cfg.protocol = Protocol::kTwoPhaseCommit;
  Cluster cluster(cfg);
  Client& client = cluster.make_client();
  cluster.run_block({simple_txn(cluster, client, {0}, "x")});
  Server& server = cluster.server(cluster.owner_of(0));
  ASSERT_EQ(server.log().size(), 1u);
  const crypto::Digest head = server.log().head_hash();

  ledger::Block broken = server.log().at(0);
  broken.height = 1;
  broken.prev_hash = crypto::sha256(to_bytes("not the log head"));
  ASSERT_FALSE(broken.prev_hash == head);
  EXPECT_EQ(server.apply_decision(broken, Server::CosignView::kNone,
                                  cluster.server_keys()),
            Server::ApplyResult::kRejected);
  EXPECT_EQ(server.log().size(), 1u);
  EXPECT_TRUE(server.log().head_hash() == head);
  EXPECT_EQ(to_string(server.shard().peek(0).value), "x-0");
}

TEST(Workload, GeneratesDistinctItemsAndCommits) {
  ClusterConfig cfg = small_config();
  Cluster cluster(cfg);
  Client& client = cluster.make_client();
  workload::YcsbWorkload wl({}, cfg.num_servers * cfg.items_per_shard, 42);

  const auto items = wl.pick_items();
  EXPECT_EQ(items.size(), 5u);
  EXPECT_EQ(std::set<ItemId>(items.begin(), items.end()).size(), 5u);

  const auto req = wl.run_transaction(client);
  EXPECT_EQ(req.request.txn.rw.reads.size(), 5u);
  EXPECT_EQ(req.request.txn.rw.writes.size(), 5u);
  const auto metrics = cluster.run_block({req});
  EXPECT_EQ(metrics.decision, ledger::Decision::kCommit);
}

TEST(Workload, ReadOnlyFractionRespected) {
  ClusterConfig cfg = small_config();
  Cluster cluster(cfg);
  Client& client = cluster.make_client();
  workload::WorkloadConfig wcfg;
  wcfg.read_only_fraction = 1.0;  // never write
  workload::YcsbWorkload wl(wcfg, cfg.num_servers * cfg.items_per_shard, 42);
  const auto req = wl.run_transaction(client);
  EXPECT_EQ(req.request.txn.rw.reads.size(), 5u);
  EXPECT_TRUE(req.request.txn.rw.writes.empty());
}

}  // namespace
}  // namespace fides

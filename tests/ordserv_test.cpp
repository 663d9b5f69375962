// Tests for the §4.6 scaling path: server groups, the OrdServ sequencer,
// and group-commit rounds.
#include <gtest/gtest.h>

#include "ordserv/group_commit.hpp"

namespace fides::ordserv {
namespace {

ClusterConfig config() {
  ClusterConfig cfg;
  cfg.num_servers = 5;
  cfg.items_per_shard = 20;
  cfg.versioning = store::VersioningMode::kSingle;
  return cfg;
}

commit::SignedEndTxn rw_txn(Cluster& /*cluster*/, Client& client, std::vector<ItemId> items,
                            const std::string& tag) {
  ClientTxn txn = client.begin();
  for (const ItemId item : items) {
    client.read(txn, item);
    client.write(txn, item, to_bytes(tag + "-" + std::to_string(item)));
  }
  return client.end(std::move(txn));
}

txn::Transaction touching(std::vector<ItemId> items) {
  txn::Transaction t;
  for (const ItemId i : items) {
    t.rw.writes.push_back(txn::WriteEntry{i, to_bytes("v"), std::nullopt, {}, {}});
  }
  return t;
}

TEST(ServerGroup, GroupForPicksInvolvedServers) {
  // 5 servers; items 0 and 6 live on servers 0 and 1.
  const ServerGroup g = group_for({touching({0, 6})}, 5);
  EXPECT_EQ(g.members, (std::vector<ServerId>{ServerId{0}, ServerId{1}}));
  EXPECT_EQ(g.coordinator, ServerId{0});
  EXPECT_TRUE(g.contains(ServerId{1}));
  EXPECT_FALSE(g.contains(ServerId{2}));
}

TEST(ServerGroup, OverlapDetection) {
  const ServerGroup a = group_for({touching({0})}, 5);   // server 0
  const ServerGroup b = group_for({touching({1})}, 5);   // server 1
  const ServerGroup c = group_for({touching({0, 1})}, 5);  // servers 0,1
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_TRUE(a.overlaps(c));
  EXPECT_TRUE(c.overlaps(b));
}

TEST(Sequencer, AssignsHeightsAndChains) {
  Sequencer seq;
  ledger::Block b1, b2;
  b1.txns.push_back(touching({0}));
  b2.txns.push_back(touching({1}));
  EXPECT_EQ(seq.submit(b1, group_for(b1.txns, 5)), 0u);
  EXPECT_EQ(seq.submit(b2, group_for(b2.txns, 5)), 1u);
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq.stream()[1].block.prev_hash, seq.stream()[0].block.digest());
  EXPECT_TRUE(seq.stream()[0].block.prev_hash.is_zero());
}

TEST(Sequencer, TracksDependencies) {
  Sequencer seq;
  ledger::Block b1, b2, b3;
  b1.txns.push_back(touching({0}));
  b2.txns.push_back(touching({1}));     // independent of b1
  b3.txns.push_back(touching({0, 1}));  // depends on both
  seq.submit(b1, group_for(b1.txns, 5));
  seq.submit(b2, group_for(b2.txns, 5));
  seq.submit(b3, group_for(b3.txns, 5));
  EXPECT_TRUE(seq.stream()[0].depends_on.empty());
  EXPECT_TRUE(seq.stream()[1].depends_on.empty());
  EXPECT_EQ(seq.stream()[2].depends_on, (std::vector<std::uint64_t>{0, 1}));
}

TEST(Sequencer, FetchNewDeliversOnce) {
  Sequencer seq;
  ledger::Block b;
  b.txns.push_back(touching({0}));
  seq.submit(b, group_for(b.txns, 5));
  EXPECT_EQ(seq.fetch_new(ServerId{0}).size(), 1u);
  EXPECT_TRUE(seq.fetch_new(ServerId{0}).empty());
  EXPECT_EQ(seq.fetch_new(ServerId{1}).size(), 1u);
}

TEST(SequencedBlock, WireRoundTrip) {
  Sequencer seq;
  ledger::Block b1, b2;
  b1.txns.push_back(touching({0}));
  b2.txns.push_back(touching({0, 6}));  // servers 0 and 1, depends on b1
  seq.submit(b1, group_for(b1.txns, 5));
  seq.submit(b2, group_for(b2.txns, 5));
  const SequencedBlock& entry = seq.stream()[1];
  const auto decoded = SequencedBlock::deserialize(entry.serialize());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->block.digest(), entry.block.digest());
  EXPECT_EQ(decoded->group.members, entry.group.members);
  EXPECT_EQ(decoded->group.coordinator, entry.group.coordinator);
  EXPECT_EQ(decoded->depends_on, (std::vector<std::uint64_t>{0}));
}

/// A sequenced entry's wire bytes around a valid empty block, with the member
/// and dependency counts written raw (and no elements behind them).
Bytes raw_entry(std::uint32_t members, std::uint32_t deps) {
  Writer w;
  w.bytes(ledger::Block{}.serialize());
  w.u32(members);
  if (members == 0) {
    w.u32(0);  // coordinator
    w.u32(deps);
  }
  return std::move(w).take();
}

TEST(SequencedBlock, HostileMemberCountIsRefusedNotAllocated) {
  ASSERT_TRUE(SequencedBlock::deserialize(raw_entry(0, 0)).has_value());
  EXPECT_FALSE(SequencedBlock::deserialize(raw_entry(0xFFFFFFFF, 0)).has_value());
}

TEST(SequencedBlock, HostileDependencyCountIsRefusedNotAllocated) {
  // Any server whose key signs an authentic gtf_seq could send this; it
  // must be dropped, not throw std::bad_alloc in the receiving server.
  EXPECT_FALSE(SequencedBlock::deserialize(raw_entry(0, 0xFFFFFFFF)).has_value());
}

TEST(SequencedBlock, TruncatedBodyIsRefused) {
  Sequencer seq;
  ledger::Block b;
  b.txns.push_back(touching({0}));
  seq.submit(b, group_for(b.txns, 5));
  Bytes bytes = seq.stream()[0].serialize();
  ASSERT_TRUE(SequencedBlock::deserialize(bytes).has_value());
  bytes.pop_back();
  EXPECT_FALSE(SequencedBlock::deserialize(bytes).has_value());
}

TEST(GroupCommit, RoundCommitsWithinGroupOnly) {
  Cluster cluster(config());
  Client& client = cluster.make_client();
  Sequencer seq;
  GroupCommitRunner runner(cluster, seq);

  // Items 0 and 6 involve servers 0 and 1 only.
  const auto result = runner.run_group_block({rw_txn(cluster, client, {0, 6}, "a")});
  EXPECT_EQ(result.decision, ledger::Decision::kCommit);
  EXPECT_TRUE(result.cosign_valid);
  EXPECT_EQ(result.group_size, 2u);
  EXPECT_EQ(result.group.members,
            (std::vector<ServerId>{ServerId{0}, ServerId{1}}));

  // The block reached every server's stream, and the write applied.
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    EXPECT_EQ(runner.log_of(ServerId{i}).size(), 1u);
  }
  EXPECT_EQ(to_string(cluster.server(ServerId{0}).shard().peek(0).value), "a-0");
}

TEST(GroupCommit, StreamValidates) {
  Cluster cluster(config());
  Client& client = cluster.make_client();
  Sequencer seq;
  GroupCommitRunner runner(cluster, seq);
  runner.run_group_block({rw_txn(cluster, client, {0}, "a")});
  runner.run_group_block({rw_txn(cluster, client, {1}, "b")});
  runner.run_group_block({rw_txn(cluster, client, {0, 1}, "c")});

  const auto& stream = runner.log_of(ServerId{4});
  ASSERT_EQ(stream.size(), 3u);
  EXPECT_FALSE(validate_stream(stream, cluster.server_keys()).has_value());
  // Dependency metadata: block 2 depends on blocks 0 and 1.
  EXPECT_EQ(stream[2].depends_on, (std::vector<std::uint64_t>{0, 1}));
}

TEST(GroupCommit, StreamDetectsTampering) {
  Cluster cluster(config());
  Client& client = cluster.make_client();
  Sequencer seq;
  GroupCommitRunner runner(cluster, seq);
  runner.run_group_block({rw_txn(cluster, client, {0}, "a")});
  runner.run_group_block({rw_txn(cluster, client, {1}, "b")});

  auto stream = runner.log_of(ServerId{0});
  stream[0].block.txns[0].rw.writes[0].new_value = to_bytes("evil");
  const auto bad = validate_stream(stream, cluster.server_keys());
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(*bad, 0u);
}

TEST(GroupCommit, StreamDetectsReorder) {
  Cluster cluster(config());
  Client& client = cluster.make_client();
  Sequencer seq;
  GroupCommitRunner runner(cluster, seq);
  runner.run_group_block({rw_txn(cluster, client, {0}, "a")});
  runner.run_group_block({rw_txn(cluster, client, {1}, "b")});

  auto stream = runner.log_of(ServerId{0});
  std::swap(stream[0], stream[1]);
  EXPECT_TRUE(validate_stream(stream, cluster.server_keys()).has_value());
}

TEST(GroupCommit, DisjointGroupsProgressIndependently) {
  Cluster cluster(config());
  Client& client = cluster.make_client();
  Sequencer seq;
  GroupCommitRunner runner(cluster, seq);

  // Server pairs (0) and (1): Gi ∩ Gj = ∅ — any order is fine, FIFO used.
  const auto r1 = runner.run_group_block({rw_txn(cluster, client, {0}, "a")});
  const auto r2 = runner.run_group_block({rw_txn(cluster, client, {1}, "b")});
  EXPECT_EQ(r1.decision, ledger::Decision::kCommit);
  EXPECT_EQ(r2.decision, ledger::Decision::kCommit);
  EXPECT_FALSE(r1.group.overlaps(r2.group));
  EXPECT_EQ(to_string(cluster.server(ServerId{0}).shard().peek(0).value), "a-0");
  EXPECT_EQ(to_string(cluster.server(ServerId{1}).shard().peek(1).value), "b-1");
}

TEST(GroupCommit, DependentGroupsKeepOrder) {
  Cluster cluster(config());
  Client& client = cluster.make_client();
  Sequencer seq;
  GroupCommitRunner runner(cluster, seq);

  // Two sequential writes to the same item through different group rounds:
  // the second must see the first (no lost update).
  auto t1 = rw_txn(cluster, client, {0}, "first");
  ASSERT_EQ(runner.run_group_block({t1}).decision, ledger::Decision::kCommit);
  auto t2 = rw_txn(cluster, client, {0}, "second");
  ASSERT_EQ(runner.run_group_block({t2}).decision, ledger::Decision::kCommit);
  EXPECT_EQ(to_string(cluster.server(ServerId{0}).shard().peek(0).value), "second-0");
  const auto& stream = runner.log_of(ServerId{0});
  EXPECT_EQ(stream[1].depends_on, (std::vector<std::uint64_t>{0}));
}

TEST(GroupCommit, EmptyBatchRefusedAtSubmission) {
  // Regression: group_for used to fabricate a {S0} group for an empty txn
  // list, letting an empty batch commit an empty co-signed block through a
  // group no transaction ever touched.
  Cluster cluster(config());
  Sequencer seq;
  GroupCommitRunner runner(cluster, seq);
  const auto result = runner.run_group_block({});
  EXPECT_EQ(result.fault, "empty batch refused at submission");
  EXPECT_EQ(result.decision, ledger::Decision::kAbort);
  EXPECT_TRUE(result.group.members.empty());
  EXPECT_EQ(seq.size(), 0u);
  EXPECT_EQ(seq.epochs().issued(), 0u);  // no epoch burned on a refused batch
}

TEST(GroupCommit, MalformedChallengeFanOutRefusedNotIndexed) {
  // Regression: a coordinator emitting a challenge fan-out that matches
  // neither the broadcast shape (1) nor the cohort count drove
  // challenges[slot] out of bounds for the last cohort. The round must be
  // refused instead — and must never reach OrdServ.
  Cluster cluster(config());
  Client& client = cluster.make_client();
  Sequencer seq;
  GroupCommitRunner runner(cluster, seq);

  // Items {0, 6, 12} → servers {0, 1, 2}: a 3-member group, so N-1 = 2
  // challenges match neither 1 nor N.
  cluster.server(ServerId{0}).faults().coordinator.drop_last_challenge = true;
  const auto result =
      runner.run_group_block({rw_txn(cluster, client, {0, 6, 12}, "a")});
  EXPECT_EQ(result.fault,
            "coordinator challenge fan-out mismatch (2 messages for 3 cohorts)");
  EXPECT_FALSE(result.cosign_valid);
  EXPECT_EQ(seq.size(), 0u);
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    EXPECT_TRUE(runner.log_of(ServerId{i}).empty());
  }
}

TEST(GroupCommit, DeliveryRefusesForgedSequencedBlock) {
  // Regression: deliver_all used to apply whatever OrdServ broadcast without
  // checking the inner co-sign, so a compromised sequencer could inject an
  // unsigned "committed" block straight into every shard.
  Cluster cluster(config());
  Client& client = cluster.make_client();
  Sequencer seq;
  GroupCommitRunner runner(cluster, seq);
  runner.run_group_block({rw_txn(cluster, client, {0}, "a")});

  // Forge a block (no co-sign at all) and submit it to the sequencer
  // directly, bypassing the group round.
  ledger::Block forged;
  forged.decision = ledger::Decision::kCommit;
  forged.txns.push_back(touching({0}));
  forged.txns[0].rw.writes[0].new_value = to_bytes("evil");
  seq.submit(forged, group_for(forged.txns, cluster.num_servers()));
  runner.deliver_pending();

  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    const auto& refusal = runner.refusal_of(ServerId{i});
    ASSERT_TRUE(refusal.has_value()) << "S" << i;
    EXPECT_EQ(refusal->height, 1u);
    EXPECT_EQ(refusal->reason, "missing group co-sign");
    EXPECT_EQ(runner.log_of(ServerId{i}).size(), 1u);  // halted before the forgery
  }
  // The forged write never touched the shard.
  EXPECT_EQ(to_string(cluster.server(ServerId{0}).shard().peek(0).value), "a-0");
}

TEST(GroupCommit, ValidatorRecomputesUnderReportedDependencies) {
  // Regression: validate_stream used to trust the sequencer's depends_on
  // metadata; a lying OrdServ could hide a cross-group dependency and
  // re-order dependent blocks undetected. Dependencies are recomputed from
  // the co-signed block contents.
  Cluster cluster(config());
  Client& client = cluster.make_client();
  Sequencer seq;
  GroupCommitRunner runner(cluster, seq);
  runner.run_group_block({rw_txn(cluster, client, {0}, "a")});
  auto t2 = rw_txn(cluster, client, {0}, "b");  // same item: depends on block 0
  runner.run_group_block({t2});

  auto stream = runner.log_of(ServerId{0});
  ASSERT_EQ(stream.size(), 2u);
  ASSERT_EQ(stream[1].depends_on, (std::vector<std::uint64_t>{0}));
  stream[1].depends_on.clear();  // OrdServ under-reports the dependency
  const auto bad = validate_stream(stream, cluster.server_keys());
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(*bad, 1u);

  // Per-entry check() names the hidden dependency.
  StreamValidator v;
  EXPECT_FALSE(v.check(stream[0], cluster.server_keys()).has_value());
  const auto reason = v.check(stream[1], cluster.server_keys());
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, "under-reported dependency on height 0");
}

TEST(GroupCommit, ByzantineGroupMemberBlocksSigning) {
  Cluster cluster(config());
  Client& client = cluster.make_client();
  Sequencer seq;
  GroupCommitRunner runner(cluster, seq);

  cluster.server(ServerId{1}).faults().cohort.corrupt_sch_response = true;
  // Items 0 and 6 -> servers 0 and 1; member 1 sabotages the co-sign.
  const auto result = runner.run_group_block({rw_txn(cluster, client, {0, 6}, "a")});
  EXPECT_FALSE(result.cosign_valid);
  EXPECT_EQ(seq.size(), 0u);  // never published
}

}  // namespace
}  // namespace fides::ordserv

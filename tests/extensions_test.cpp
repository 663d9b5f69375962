// Tests for the paper's "orthogonal" features implemented as extensions:
// multi-version recovery (§4.2.1), log checkpointing (§3.3), and wire-format
// round-trips for every commit-protocol message.
#include <gtest/gtest.h>

#include "audit/auditor.hpp"
#include "engine/reactor.hpp"
#include "ledger/checkpoint.hpp"
#include "workload/ycsb.hpp"

namespace fides {
namespace {

ClusterConfig small_config() {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.items_per_shard = 16;
  cfg.versioning = store::VersioningMode::kMulti;
  cfg.sign_data_path = false;
  return cfg;
}

commit::SignedEndTxn rw_txn(Cluster& cluster, Client& client, std::vector<ItemId> items,
                            const std::string& tag) {
  ClientTxn txn = client.begin();
  cluster.client_begin(client, txn.id(), items);
  for (const ItemId item : items) {
    client.read(txn, item);
    client.write(txn, item, to_bytes(tag + "-" + std::to_string(item)));
  }
  return client.end(std::move(txn));
}

// --- Recovery (§4.2.1) --------------------------------------------------------

TEST(Recovery, VersionChainTruncateAfter) {
  store::VersionChain chain(to_bytes("v0"));
  chain.append(Timestamp{10, 0}, to_bytes("v10"));
  chain.append(Timestamp{20, 0}, to_bytes("v20"));
  chain.append(Timestamp{30, 0}, to_bytes("v30"));
  EXPECT_EQ(chain.truncate_after(Timestamp{15, 0}), 2u);
  EXPECT_EQ(to_string(chain.latest().value), "v10");
  // Initial version survives even a truncate-to-before-everything.
  EXPECT_EQ(chain.truncate_after(kTimestampZero), 1u);
  EXPECT_EQ(to_string(chain.latest().value), "v0");
}

TEST(Recovery, ShardResetRestoresStateAndRoot) {
  store::Shard shard(ShardId{0}, {0, 1, 2, 3}, to_bytes("init"),
                     store::VersioningMode::kMulti);
  shard.apply_write(0, to_bytes("a1"), Timestamp{1, 0});
  shard.apply_write(1, to_bytes("b1"), Timestamp{1, 0});
  const auto root_v1 = shard.merkle_root();

  shard.apply_write(0, to_bytes("a2"), Timestamp{2, 0});
  shard.apply_write(2, to_bytes("c2"), Timestamp{3, 0});
  ASSERT_NE(shard.merkle_root(), root_v1);

  const std::size_t dropped = shard.reset_to_version(Timestamp{1, 0});
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(shard.merkle_root(), root_v1);
  EXPECT_EQ(to_string(shard.peek(0).value), "a1");
  EXPECT_EQ(to_string(shard.peek(2).value), "init");
  EXPECT_EQ(shard.peek(0).wts, (Timestamp{1, 0}));
}

TEST(Recovery, ResetRequiresMultiVersion) {
  store::Shard shard(ShardId{0}, {0}, to_bytes("x"), store::VersioningMode::kSingle);
  EXPECT_THROW(shard.reset_to_version(Timestamp{1, 0}), std::logic_error);
}

TEST(Recovery, CorruptionThenResetThenCleanAudit) {
  // The full §4.2.1 recovery story: corruption detected at a version, the
  // server resets to the last sanitized version, and can serve correct
  // state again (the old corrupted versions are gone).
  Cluster cluster(small_config());
  Client& client = cluster.make_client();
  cluster.run_block({rw_txn(cluster, client, {0}, "good")});
  Server& victim = cluster.server(cluster.owner_of(0));
  const Timestamp good_ts = victim.log().at(0).txns[0].commit_ts;

  victim.faults().corrupt_after_commit_item = 0;
  cluster.run_block({rw_txn(cluster, client, {0}, "bad-era")});
  audit::Auditor auditor(cluster);
  ASSERT_TRUE(auditor.run().has(audit::ViolationKind::kDatastoreCorruption));

  // Operator response: stop the fault, roll back to the sanitized version.
  victim.faults().corrupt_after_commit_item.reset();
  victim.shard().reset_to_version(good_ts);
  EXPECT_EQ(to_string(victim.shard().peek(0).value), "good-0");
}

// --- Checkpointing (§3.3) -------------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster = std::make_unique<Cluster>(small_config());
    client = &cluster->make_client();
    for (int i = 0; i < 4; ++i) {
      cluster->run_block({rw_txn(*cluster, *client, {static_cast<ItemId>(i)},
                                 "b" + std::to_string(i))});
    }
  }
  std::unique_ptr<Cluster> cluster;
  Client* client{};
};

TEST_F(CheckpointTest, CreateAndValidate) {
  const auto cp = cluster->create_checkpoint();
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->height, 4u);
  EXPECT_EQ(cp->head_hash, cluster->server(ServerId{0}).log().head_hash());
  EXPECT_TRUE(ledger::validate_checkpoint(*cp, cluster->server_keys()));
  EXPECT_FALSE(cp->roots.empty());
  // Byte pin: the SHA-256 of the serialized checkpoint, co-sign included.
  EXPECT_EQ(crypto::sha256(cp->serialize()).hex(),
            "8e116e646c768ba202b6baf6b0bd62c6c8a36c3250213298f116eac5559c5592");
}

TEST_F(CheckpointTest, SerializationRoundTrip) {
  const auto cp = cluster->create_checkpoint();
  ASSERT_TRUE(cp.has_value());
  const auto back = ledger::Checkpoint::deserialize(cp->serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, *cp);
  EXPECT_TRUE(ledger::validate_checkpoint(*back, cluster->server_keys()));
}

TEST_F(CheckpointTest, TamperedCheckpointRejected) {
  auto cp = cluster->create_checkpoint();
  ASSERT_TRUE(cp.has_value());
  cp->height = 2;  // claim a shorter prefix than was signed
  EXPECT_FALSE(ledger::validate_checkpoint(*cp, cluster->server_keys()));
}

TEST_F(CheckpointTest, DivergentServerBlocksCheckpoint) {
  cluster->server(ServerId{1}).log().truncate_tail(2);
  EXPECT_FALSE(cluster->create_checkpoint().has_value());
}

TEST_F(CheckpointTest, ValidateChainFromCheckpoint) {
  const auto cp = cluster->create_checkpoint();
  ASSERT_TRUE(cp.has_value());

  // Extend the log past the checkpoint.
  cluster->run_block({rw_txn(*cluster, *client, {9}, "after")});
  const auto& log = cluster->server(ServerId{2}).log().blocks();
  EXPECT_TRUE(ledger::validate_chain_from(*cp, log, cluster->server_keys()).ok);

  // A tampered suffix block is caught without touching the prefix.
  auto tampered = log;
  tampered[4].decision = ledger::Decision::kAbort;
  const auto res = ledger::validate_chain_from(*cp, tampered, cluster->server_keys());
  EXPECT_FALSE(res.ok);
  ASSERT_FALSE(res.issues.empty());
  EXPECT_EQ(res.issues[0].block_index, 4u);
}

TEST_F(CheckpointTest, SuffixMustChainFromCheckpointHead) {
  const auto cp = cluster->create_checkpoint();
  ASSERT_TRUE(cp.has_value());
  cluster->run_block({rw_txn(*cluster, *client, {9}, "after")});
  auto log = cluster->server(ServerId{0}).log().blocks();
  log[4].prev_hash = crypto::sha256(to_bytes("severed"));
  EXPECT_FALSE(ledger::validate_chain_from(*cp, log, cluster->server_keys()).ok);
}

// --- The checkpoint witness, driven by hand -------------------------------------
//
// A Byzantine coordinator (S0) runs engine::CheckpointRound message by message
// through a capturing Outbox: it sees every witness's commitment and may send
// any challenge it likes. The witnesses must answer only the challenge over
// the checkpoint their own log yields, and only once per nonce round.

/// Captures every envelope a reactor sends, in send order.
class CapturingOutbox final : public engine::Outbox {
 public:
  struct Sent {
    NodeId src;
    NodeId dst;
    Envelope env;
  };

  void send(NodeId src, NodeId dst, Envelope env) override {
    sent_.push_back(Sent{src, dst, std::move(env)});
  }

  /// Removes and returns the captured envelopes of wire type `type`.
  std::vector<Sent> take(const std::string& type) {
    std::vector<Sent> taken;
    std::vector<Sent> rest;
    for (Sent& m : sent_) (m.env.type == type ? taken : rest).push_back(std::move(m));
    sent_ = std::move(rest);
    return taken;
  }

 private:
  std::vector<Sent> sent_;
};

class CheckpointWitnessTest : public CheckpointTest {
 protected:
  static NodeId node(std::uint32_t i) { return NodeId::server(ServerId{i}); }

  ledger::Checkpoint honest() const {
    return ledger::make_checkpoint(cluster->server(ServerId{0}).log().blocks(),
                                   engine::RoundPlacement::global(*cluster).members);
  }

  /// S0's envelope of wire type `type` for round `epoch`.
  Envelope from_s0(std::uint64_t epoch, const char* type, BytesView payload) {
    const Server& s0 = cluster->server(ServerId{0});
    return cluster->transport().seal(s0.keypair(), NodeId::server(s0.id()), type,
                                     engine::frame_payload(epoch, payload));
  }

  /// A cp_challenge carrying (V, c), the way the coordinator sends one.
  Envelope challenge(std::uint64_t epoch, const crypto::AffinePoint& v, const crypto::U256& c) {
    Writer w;
    w.bytes(v.serialize());
    const auto cb = c.to_bytes_be();
    w.raw(BytesView(cb.data(), cb.size()));
    return from_s0(epoch, "cp_challenge", w.data());
  }

  /// Delivers every captured envelope of `type` to its destination.
  void deliver_all(engine::CheckpointRound& round, CapturingOutbox& out, const char* type) {
    for (const auto& m : out.take(type)) round.on_deliver(m.src, m.dst, m.env, true, out);
  }

  /// Opens `round` and returns the witnesses' aggregate commitment V, as
  /// read off their cp_commit messages (which stay undelivered).
  crypto::AffinePoint commit_phase(engine::CheckpointRound& round, CapturingOutbox& out) {
    round.start(out);
    deliver_all(round, out, "cp_propose");
    std::vector<crypto::AffinePoint> vs;
    for (const auto& m : out.take("cp_commit")) {
      Reader r(engine::unframe_payload(m.env.payload));
      r.u32();
      EXPECT_TRUE(r.boolean()) << "witness S" << m.src.id << " refused the honest proposal";
      vs.push_back(*crypto::AffinePoint::deserialize(r.bytes()));
    }
    return crypto::cosi_aggregate_commitments(vs);
  }

  /// Delivers `env` to every server and returns the responses it drew.
  std::vector<CapturingOutbox::Sent> challenge_all(engine::CheckpointRound& round,
                                                   CapturingOutbox& out, const Envelope& env) {
    for (std::uint32_t i = 0; i < cluster->num_servers(); ++i) {
      round.on_deliver(node(0), node(i), env, true, out);
    }
    return out.take("cp_response");
  }
};

TEST_F(CheckpointWitnessTest, WitnessRefusesAChallengeOverAForgedHead) {
  const std::uint64_t epoch = cluster->epochs().reserve();
  engine::CheckpointRound round(*cluster, epoch);
  CapturingOutbox out;
  const crypto::AffinePoint v = commit_phase(round, out);

  ledger::Checkpoint forged = honest();
  forged.head_hash = crypto::sha256(to_bytes("forged-head"));
  const crypto::U256 c = crypto::cosi_challenge(v, forged.signing_bytes());
  const auto responses = challenge_all(round, out, challenge(epoch, v, c));
  for (const auto& m : responses) {
    EXPECT_NE(m.src, node(1)) << "S1 co-signed a head its log does not have";
  }

  // Whatever shares did come back cannot seal the forged checkpoint.
  std::vector<crypto::U256> shares;
  for (const auto& m : responses) {
    Reader r(engine::unframe_payload(m.env.payload));
    r.u32();
    shares.push_back(crypto::U256::from_bytes_be(r.raw(32)));
  }
  forged.cosign = crypto::CosiSignature{v, crypto::cosi_aggregate_responses(shares)};
  EXPECT_FALSE(ledger::validate_checkpoint(forged, cluster->server_keys()));
}

TEST_F(CheckpointWitnessTest, WitnessAnswersOneChallengePerHeight) {
  // Round 1 runs honestly and seals the checkpoint.
  engine::CheckpointRound first(*cluster, cluster->epochs().reserve());
  CapturingOutbox out;
  first.start(out);
  deliver_all(first, out, "cp_propose");
  deliver_all(first, out, "cp_commit");
  deliver_all(first, out, "cp_challenge");
  deliver_all(first, out, "cp_response");
  ASSERT_TRUE(first.result().has_value());

  // Round 2 at the same height: the deterministic nonces come back, and S0
  // slips one extra commitment into V to make the challenge differ. A second
  // answer under the same nonce would give S1's key away.
  const std::uint64_t epoch = cluster->epochs().reserve();
  engine::CheckpointRound second(*cluster, epoch);
  const crypto::AffinePoint v = commit_phase(second, out);
  ASSERT_TRUE(v == first.result()->cosign->v);
  const auto& curve = crypto::Curve::instance();
  const crypto::AffinePoint v2 = crypto::cosi_aggregate_commitments(
      std::vector{v, curve.to_affine(curve.mul_g(crypto::U256(7)))});
  const crypto::U256 c2 = crypto::cosi_challenge(v2, honest().signing_bytes());
  second.on_deliver(node(0), node(1), challenge(epoch, v2, c2), true, out);
  EXPECT_TRUE(out.take("cp_response").empty()) << "S1 answered a second challenge";
}

TEST_F(CheckpointWitnessTest, WitnessRefusesAProposalWithAForgedRoot) {
  const std::uint64_t epoch = cluster->epochs().reserve();
  engine::CheckpointRound round(*cluster, epoch);
  CapturingOutbox out;
  ledger::Checkpoint prop = honest();
  ASSERT_FALSE(prop.roots.empty());
  prop.roots[0].root = crypto::sha256(to_bytes("forged-root"));
  round.on_deliver(node(0), node(1), from_s0(epoch, "cp_propose", prop.serialize()), true, out);
  const auto commits = out.take("cp_commit");
  ASSERT_EQ(commits.size(), 1u);
  Reader r(engine::unframe_payload(commits[0].env.payload));
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_FALSE(r.boolean()) << "S1 agreed to a checkpoint with a root its log never held";
}

// --- Wire-format round-trips for the protocol messages ----------------------------

class MessageRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster = std::make_unique<Cluster>(small_config());
    client = &cluster->make_client();
    request = rw_txn(*cluster, *client, {0, 1}, "msg");
  }
  std::unique_ptr<Cluster> cluster;
  Client* client{};
  commit::SignedEndTxn request;
};

TEST_F(MessageRoundTrip, EndTxnRequestAndSignature) {
  const auto back = commit::EndTxnRequest::deserialize(request.request.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->txn, request.request.txn);
  EXPECT_TRUE(request.verify(*cluster->server_keys().client(client->id())));
  // A tweaked request no longer verifies under the client's signature.
  commit::SignedEndTxn forged = request;
  forged.request.txn.commit_ts.logical += 1;
  EXPECT_FALSE(forged.verify(*cluster->server_keys().client(client->id())));
}

TEST_F(MessageRoundTrip, GetVoteMsg) {
  commit::GetVoteMsg msg;
  msg.partial_block.txns.push_back(request.request.txn);
  msg.partial_block.signers = {ServerId{0}, ServerId{1}, ServerId{2}};
  msg.requests = {request};
  msg.round = 7;
  const auto back = commit::GetVoteMsg::deserialize(msg.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->partial_block, msg.partial_block);
  EXPECT_EQ(back->round, 7u);
  ASSERT_EQ(back->requests.size(), 1u);
  EXPECT_TRUE(back->requests[0].verify(*cluster->server_keys().client(client->id())));
}

TEST_F(MessageRoundTrip, VoteMsgWithAndWithoutRoot) {
  commit::VoteMsg vote;
  vote.cohort = ServerId{2};
  vote.sch_commitment =
      crypto::Curve::instance().to_affine(crypto::Curve::instance().mul_g(crypto::U256(5)));
  vote.involved = true;
  vote.vote = txn::Vote::kCommit;
  vote.root = crypto::sha256(to_bytes("root"));
  auto back = commit::VoteMsg::deserialize(vote.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->cohort, ServerId{2});
  EXPECT_TRUE(back->root.has_value());
  EXPECT_EQ(*back->root, *vote.root);

  vote.root.reset();
  vote.vote = txn::Vote::kAbort;
  vote.abort_reason = "stale read";
  back = commit::VoteMsg::deserialize(vote.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->root.has_value());
  EXPECT_EQ(back->abort_reason, "stale read");
}

TEST_F(MessageRoundTrip, ChallengeResponseDecision) {
  const auto& curve = crypto::Curve::instance();
  commit::ChallengeMsg ch;
  ch.challenge = crypto::U256(12345);
  ch.aggregate_commitment = curve.to_affine(curve.mul_g(crypto::U256(9)));
  ch.block.txns.push_back(request.request.txn);
  ch.block.signers = {ServerId{0}};
  const auto ch2 = commit::ChallengeMsg::deserialize(ch.serialize());
  ASSERT_TRUE(ch2.has_value());
  EXPECT_EQ(ch2->challenge, ch.challenge);
  EXPECT_EQ(ch2->block, ch.block);

  commit::ResponseMsg resp;
  resp.cohort = ServerId{1};
  resp.refused = true;
  resp.refusal_reason = "challenge mismatch";
  const auto resp2 = commit::ResponseMsg::deserialize(resp.serialize());
  ASSERT_TRUE(resp2.has_value());
  EXPECT_TRUE(resp2->refused);
  EXPECT_EQ(resp2->refusal_reason, "challenge mismatch");

  commit::DecisionMsg dec;
  dec.final_block = ch.block;
  const auto dec2 = commit::DecisionMsg::deserialize(dec.serialize());
  ASSERT_TRUE(dec2.has_value());
  EXPECT_EQ(dec2->final_block, ch.block);
}

TEST_F(MessageRoundTrip, TwoPhaseCommitMessages) {
  commit::PrepareMsg prep;
  prep.partial_block.txns.push_back(request.request.txn);
  prep.requests = {request};
  const auto prep2 = commit::PrepareMsg::deserialize(prep.serialize());
  ASSERT_TRUE(prep2.has_value());
  EXPECT_EQ(prep2->partial_block, prep.partial_block);

  commit::PrepareVoteMsg vote;
  vote.cohort = ServerId{2};
  vote.involved = true;
  vote.vote = txn::Vote::kAbort;
  vote.abort_reason = "WW-conflict";
  const auto vote2 = commit::PrepareVoteMsg::deserialize(vote.serialize());
  ASSERT_TRUE(vote2.has_value());
  EXPECT_EQ(vote2->abort_reason, "WW-conflict");

  commit::CommitDecisionMsg dec;
  dec.final_block = prep.partial_block;
  const auto dec2 = commit::CommitDecisionMsg::deserialize(dec.serialize());
  ASSERT_TRUE(dec2.has_value());
  EXPECT_EQ(dec2->final_block, prep.partial_block);
}

TEST_F(MessageRoundTrip, GarbageRejectedEverywhere) {
  const Bytes junk = to_bytes("definitely not a protocol message");
  EXPECT_FALSE(commit::GetVoteMsg::deserialize(junk).has_value());
  EXPECT_FALSE(commit::VoteMsg::deserialize(junk).has_value());
  EXPECT_FALSE(commit::ChallengeMsg::deserialize(junk).has_value());
  EXPECT_FALSE(commit::ResponseMsg::deserialize(junk).has_value());
  EXPECT_FALSE(commit::DecisionMsg::deserialize(junk).has_value());
  EXPECT_FALSE(commit::PrepareMsg::deserialize(junk).has_value());
  EXPECT_FALSE(commit::PrepareVoteMsg::deserialize(junk).has_value());
  EXPECT_FALSE(commit::CommitDecisionMsg::deserialize(junk).has_value());
  EXPECT_FALSE(ledger::Checkpoint::deserialize(junk).has_value());
  EXPECT_FALSE(commit::EndTxnRequest::deserialize(junk).has_value());
}

}  // namespace
}  // namespace fides

// Tests for TFCommit (§4.3) and the 2PC baseline, driven directly through
// the protocol state machines: happy paths, abort paths, every Byzantine
// deviation of Lemmas 4 & 5 and Scenario 2, and batching (§4.6).
#include <gtest/gtest.h>

#include "commit/batch.hpp"
#include "commit/tfcommit.hpp"
#include "commit/two_phase_commit.hpp"

namespace fides::commit {
namespace {

constexpr std::uint32_t kServers = 4;

/// Minimal in-test harness: N shards + cohorts + a coordinator, no cluster.
class TfCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::uint32_t i = 0; i < kServers; ++i) {
      keypairs.push_back(crypto::KeyPair::deterministic(i));
      keys.push_back(keypairs.back().public_key());
      shards.push_back(std::make_unique<store::Shard>(
          ShardId{i}, store::items_for_shard(ShardId{i}, kServers, 16),
          to_bytes("init"), store::VersioningMode::kSingle));
      cohort_ids.push_back(ServerId{i});
    }
    for (std::uint32_t i = 0; i < kServers; ++i) registry.set_server(ServerId{i}, keys[i]);
    for (std::uint32_t i = 0; i < kServers; ++i) {
      round_logs.push_back(std::make_unique<ledger::MemRoundLog>());
      witnesses.push_back(std::make_unique<CosiWitness>(keypairs[i], *round_logs[i]));
      cohorts.push_back(std::make_unique<TfCommitCohort>(ServerId{i}, *witnesses[i],
                                                         *shards[i]));
    }
  }

  txn::Transaction make_txn(std::uint64_t ts, std::vector<ItemId> items) {
    txn::Transaction t;
    t.id = TxnId{0, ts};
    t.commit_ts = Timestamp{ts, 0};
    for (const ItemId item : items) {
      const auto& shard = *shards[item % kServers];
      const auto& rec = shard.peek(item);
      t.rw.reads.push_back(txn::ReadEntry{item, rec.value, rec.rts, rec.wts});
      t.rw.writes.push_back(txn::WriteEntry{
          item, to_bytes("w" + std::to_string(ts) + "-" + std::to_string(item)),
          std::nullopt, rec.rts, rec.wts});
    }
    return t;
  }

  /// Runs one full round; faults are per-cohort plus coordinator faults.
  TfCommitOutcome run_round(std::vector<txn::Transaction> txns,
                            const std::vector<CohortFaults>& cohort_faults = {},
                            const CoordinatorFaults& coord_faults = {}) {
    TfCommitCoordinator coordinator(cohort_ids, registry);
    Block partial = TfCommitCoordinator::make_partial_block(
        round_, prev_hash_, std::move(txns), cohort_ids);
    const GetVoteMsg get_vote = coordinator.start(std::move(partial), {});

    std::vector<VoteMsg> votes;
    for (std::uint32_t i = 0; i < kServers; ++i) {
      const CohortFaults f =
          i < cohort_faults.size() ? cohort_faults[i] : CohortFaults{};
      votes.push_back(cohorts[i]->handle_get_vote(get_vote, f));
    }
    const auto challenges = coordinator.on_votes(votes, coord_faults);
    std::vector<ResponseMsg> responses;
    for (std::uint32_t i = 0; i < kServers; ++i) {
      const CohortFaults f =
          i < cohort_faults.size() ? cohort_faults[i] : CohortFaults{};
      const std::size_t slot = challenges.size() == 1 ? 0 : i;
      responses.push_back(cohorts[i]->handle_challenge(get_vote.round, challenges[slot], f));
    }
    const TfCommitOutcome outcome = coordinator.on_responses(responses);
    if (outcome.cosign_valid) {
      prev_hash_ = outcome.block.digest();
      ++round_;
    }
    return outcome;
  }

  std::vector<crypto::KeyPair> keypairs;
  std::vector<crypto::PublicKey> keys;
  crypto::KeyRegistry registry;
  std::vector<std::unique_ptr<store::Shard>> shards;
  std::vector<std::unique_ptr<ledger::MemRoundLog>> round_logs;
  std::vector<std::unique_ptr<CosiWitness>> witnesses;
  std::vector<std::unique_ptr<TfCommitCohort>> cohorts;
  std::vector<ServerId> cohort_ids;
  std::uint64_t round_{0};
  crypto::Digest prev_hash_ = crypto::Digest::zero();
};

TEST_F(TfCommitTest, HappyPathCommitsWithValidCosign) {
  const auto outcome = run_round({make_txn(1, {0, 1, 2})});
  EXPECT_EQ(outcome.decision, Decision::kCommit);
  EXPECT_TRUE(outcome.cosign_valid);
  EXPECT_TRUE(outcome.refusals.empty());
  EXPECT_TRUE(crypto::cosi_verify(outcome.block.signing_bytes(),
                                  *outcome.block.cosign, keys));
}

TEST_F(TfCommitTest, CommitBlockCarriesRootsOfInvolvedServers) {
  const auto outcome = run_round({make_txn(1, {0, 1})});  // servers 0 and 1
  EXPECT_NE(outcome.block.root_of(ServerId{0}), nullptr);
  EXPECT_NE(outcome.block.root_of(ServerId{1}), nullptr);
  EXPECT_EQ(outcome.block.root_of(ServerId{2}), nullptr);  // uninvolved
  EXPECT_EQ(outcome.block.root_of(ServerId{3}), nullptr);
}

TEST_F(TfCommitTest, RootsMatchHypotheticalShardState) {
  const txn::Transaction t = make_txn(1, {0});
  const auto outcome = run_round({t});
  std::vector<std::pair<ItemId, Bytes>> writes;
  for (const auto& w : t.rw.writes) writes.emplace_back(w.id, w.new_value);
  EXPECT_EQ(*outcome.block.root_of(ServerId{0}), shards[0]->root_after(writes));
}

TEST_F(TfCommitTest, VetoAbortsWholeBlockButStillSigns) {
  std::vector<CohortFaults> faults(kServers);
  faults[1].always_vote_abort = true;
  const auto outcome = run_round({make_txn(1, {0, 1, 2})}, faults);
  EXPECT_EQ(outcome.decision, Decision::kAbort);
  // "Even an aborted transaction must be signed by all the servers."
  EXPECT_TRUE(outcome.cosign_valid);
  // "If any involved cohorts chose abort, the respective roots will be
  // missing in the block."
  EXPECT_EQ(outcome.block.root_of(ServerId{1}), nullptr);
}

TEST_F(TfCommitTest, UninvolvedServersStillCosign) {
  const auto outcome = run_round({make_txn(1, {0})});  // only server 0 involved
  EXPECT_TRUE(outcome.cosign_valid);
  EXPECT_EQ(outcome.block.signers.size(), kServers);
}

TEST_F(TfCommitTest, StaleTransactionAborts) {
  // Commit ts 5 first, then try ts 3 touching the same item: OCC aborts.
  ASSERT_EQ(run_round({make_txn(5, {0})}).decision, Decision::kCommit);
  for (std::uint32_t i = 0; i < kServers; ++i) {
    // Apply the committed block to shards (normally the server does this).
    txn::apply_committed(*shards[i], make_txn(5, {0}));
  }
  const auto outcome = run_round({make_txn(3, {0})});
  EXPECT_EQ(outcome.decision, Decision::kAbort);
}

// --- Lemma 4: wrong CoSi values are attributed to the exact server ------------

TEST_F(TfCommitTest, CorruptResponseIdentified) {
  std::vector<CohortFaults> faults(kServers);
  faults[2].corrupt_sch_response = true;
  const auto outcome = run_round({make_txn(1, {0, 1})}, faults);
  EXPECT_FALSE(outcome.cosign_valid);
  ASSERT_EQ(outcome.faulty_cosigners.size(), 1u);
  EXPECT_EQ(outcome.faulty_cosigners[0], ServerId{2});
}

TEST_F(TfCommitTest, CorruptCommitmentIdentified) {
  std::vector<CohortFaults> faults(kServers);
  faults[3].corrupt_sch_commitment = true;
  const auto outcome = run_round({make_txn(1, {0})}, faults);
  EXPECT_FALSE(outcome.cosign_valid);
  ASSERT_EQ(outcome.faulty_cosigners.size(), 1u);
  EXPECT_EQ(outcome.faulty_cosigners[0], ServerId{3});
}

TEST_F(TfCommitTest, MultipleCorruptCosignersAllIdentified) {
  std::vector<CohortFaults> faults(kServers);
  faults[1].corrupt_sch_response = true;
  faults[3].corrupt_sch_response = true;
  const auto outcome = run_round({make_txn(1, {0})}, faults);
  EXPECT_FALSE(outcome.cosign_valid);
  EXPECT_EQ(outcome.faulty_cosigners,
            (std::vector<ServerId>{ServerId{1}, ServerId{3}}));
  // Byte pin: the decision block (with its invalid co-sign) the coordinator
  // broadcasts, as the SHA-256 of its full serialization.
  EXPECT_EQ(outcome.block.digest().hex(),
            "ef3054cf5f053134a0483949c07d3b8a88fd298db421f7065e84ea92a3116d3a");
}

// --- Scenario 2: fake Merkle root in the block ---------------------------------

TEST_F(TfCommitTest, FakeRootRefusedByVictim) {
  CoordinatorFaults coord;
  coord.fake_root_victim = ServerId{1};
  const auto outcome = run_round({make_txn(1, {0, 1})}, {}, coord);
  EXPECT_FALSE(outcome.cosign_valid);
  bool victim_refused = false;
  for (const auto& [server, reason] : outcome.refusals) {
    if (server == ServerId{1}) {
      victim_refused = true;
      EXPECT_NE(reason.find("root"), std::string::npos);
    }
  }
  EXPECT_TRUE(victim_refused);
}

TEST_F(TfCommitTest, FakeRootWithCollusionSignsButLeavesEvidence) {
  // If the victim colludes (skips its root check), the block signs — and the
  // forged root is now permanently bound to the co-sign, which is exactly
  // what the datastore audit (Lemma 2) will later catch.
  CoordinatorFaults coord;
  coord.fake_root_victim = ServerId{1};
  std::vector<CohortFaults> faults(kServers);
  faults[1].skip_root_check = true;
  const auto outcome = run_round({make_txn(1, {0, 1})}, faults, coord);
  EXPECT_TRUE(outcome.cosign_valid);
  EXPECT_EQ(*outcome.block.root_of(ServerId{1}),
            crypto::sha256(to_bytes("forged-root")));
}

// --- Lemma 5: coordinator equivocation ------------------------------------------

TEST_F(TfCommitTest, EquivocationSameChallengeDetectedByVictims) {
  // Case 1: same challenge, different blocks. Victims recompute the
  // challenge over the block they received and refuse.
  CoordinatorFaults coord;
  coord.equivocate = CoordinatorFaults::Equivocation::kSameChallenge;
  coord.equivocation_victims = {2, 3};
  const auto outcome = run_round({make_txn(1, {0, 1, 2, 3})}, {}, coord);
  EXPECT_FALSE(outcome.cosign_valid);
  EXPECT_GE(outcome.refusals.size(), 2u);
}

TEST_F(TfCommitTest, EquivocationMatchingChallengesProducesInvalidCosign) {
  // Case 2: per-block consistent challenges. No cohort can object locally,
  // but the aggregate responses mix two challenges, so the final signature
  // corresponds to neither block.
  CoordinatorFaults coord;
  coord.equivocate = CoordinatorFaults::Equivocation::kMatchingChallenges;
  coord.equivocation_victims = {3};
  const auto outcome = run_round({make_txn(1, {0, 1, 2, 3})}, {}, coord);
  EXPECT_FALSE(outcome.cosign_valid);
  EXPECT_TRUE(outcome.refusals.empty());  // nobody could tell locally...
  // ...but the aggregate exposes it, and share verification localizes the
  // inconsistency to the equivocation victim's challenge domain.
  EXPECT_FALSE(outcome.faulty_cosigners.empty());
}

TEST_F(TfCommitTest, ForceCommitOverAbortVoteRefused) {
  // Atomicity attack: coordinator declares commit although a cohort voted
  // abort. The vetoing cohort's root is missing and it refuses to co-sign.
  std::vector<CohortFaults> faults(kServers);
  faults[0].always_vote_abort = true;
  CoordinatorFaults coord;
  coord.force_commit = true;
  const auto outcome = run_round({make_txn(1, {0, 1})}, faults, coord);
  EXPECT_FALSE(outcome.cosign_valid);
  bool vetoer_refused = false;
  for (const auto& [server, reason] : outcome.refusals) {
    vetoer_refused |= server == ServerId{0};
  }
  EXPECT_TRUE(vetoer_refused);
}

// --- The CoSi witness: challenge check and durable respond-once -----------------

TEST(CosiWitnessTest, AnswersOneChallengePerNonceRoundAcrossRestore) {
  const crypto::KeyPair kp = crypto::KeyPair::deterministic(7);
  ledger::MemRoundLog log;
  CosiWitness witness(kp, log);
  const Bytes record = to_bytes("record");
  constexpr std::uint64_t kRound = 42;
  const crypto::AffinePoint v = witness.commit(record, kRound);
  const crypto::U256 c = crypto::cosi_challenge(v, record);

  const auto first = witness.respond(record, kRound, record, v, c);
  ASSERT_TRUE(first.r.has_value());
  EXPECT_TRUE(crypto::cosi_verify_share(v, *first.r, c, crypto::KeyTable(kp.public_key())));
  // The identical challenge re-asked (a deterministic restart) is re-answered.
  const auto again = witness.respond(record, kRound, record, v, c);
  ASSERT_TRUE(again.r.has_value());
  EXPECT_EQ(*again.r, *first.r);

  // A different, well-formed challenge for the same nonce round is refused.
  const auto& curve = crypto::Curve::instance();
  const crypto::AffinePoint v2 = crypto::cosi_aggregate_commitments(
      std::vector{v, curve.to_affine(curve.mul_g(crypto::U256(7)))});
  const crypto::U256 c2 = crypto::cosi_challenge(v2, record);
  EXPECT_FALSE(witness.respond(record, kRound, record, v2, c2).r.has_value());

  // A challenge that is not H(V ‖ record) is refused, even in a fresh round.
  const crypto::U256 other = crypto::cosi_challenge(v, to_bytes("another record"));
  EXPECT_FALSE(witness.respond(record, kRound + 1, record, v, other).r.has_value());

  // A fresh witness restored from the same log keeps the guard.
  CosiWitness restored(kp, log);
  restored.restore(*log.replay());
  EXPECT_FALSE(restored.respond(record, kRound, record, v2, c2).r.has_value());
  const auto replayed = restored.respond(record, kRound, record, v, c);
  ASSERT_TRUE(replayed.r.has_value());
  EXPECT_EQ(*replayed.r, *first.r);
}

// --- The CoSi leader: aggregate, seal, attribute ---------------------------------

class CosiLeaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::uint32_t i = 0; i < kServers; ++i) {
      keypairs.push_back(crypto::KeyPair::deterministic(i));
      registry.set_server(ServerId{i}, keypairs.back().public_key());
      all.push_back(ServerId{i});
    }
    for (std::uint32_t i = 0; i < kServers; ++i) {
      logs.push_back(std::make_unique<ledger::MemRoundLog>());
      witnesses.push_back(std::make_unique<CosiWitness>(keypairs[i], *logs[i]));
    }
  }

  /// One exchange over `record` led by `leader`: each signer's witness
  /// commits, then answers the leader's challenge. Returns the shares.
  std::vector<crypto::U256> exchange(CosiLeader& leader) {
    std::vector<crypto::AffinePoint> commitments;
    for (const ServerId s : leader.signers()) {
      commitments.push_back(witnesses[s.value]->commit(record, kRound));
    }
    const CosiLeader::Challenge ch = leader.challenge(commitments, record);
    std::vector<crypto::U256> shares;
    for (const ServerId s : leader.signers()) {
      const auto answer = witnesses[s.value]->respond(record, kRound, record, ch.v, ch.c);
      EXPECT_TRUE(answer.r.has_value()) << answer.refusal;
      shares.push_back(answer.r.value_or(crypto::U256{}));
    }
    return shares;
  }

  static constexpr std::uint64_t kRound = 9;
  const Bytes record = to_bytes("leader record");
  std::vector<crypto::KeyPair> keypairs;
  crypto::KeyRegistry registry;
  std::vector<ServerId> all;
  std::vector<std::unique_ptr<ledger::MemRoundLog>> logs;
  std::vector<std::unique_ptr<CosiWitness>> witnesses;
};

TEST_F(CosiLeaderTest, HonestSealVerifies) {
  CosiLeader leader(all, registry);
  const auto shares = exchange(leader);
  const CosiLeader::Seal seal = leader.seal(shares);
  EXPECT_TRUE(seal.valid);
  EXPECT_TRUE(crypto::cosi_verify(record, seal.signature, *registry.aggregate(all)));
  EXPECT_TRUE(leader.faulty(shares).empty());
}

TEST_F(CosiLeaderTest, OneBadShareInvalidatesTheSealAndNamesItsSigner) {
  CosiLeader leader(all, registry);
  auto shares = exchange(leader);
  shares[2] = crypto::U256(0xBADBAD);
  EXPECT_FALSE(leader.seal(shares).valid);
  EXPECT_EQ(leader.faulty(shares), std::vector<ServerId>{ServerId{2}});
}

TEST_F(CosiLeaderTest, RefusedSealIsInvalidWithoutAVerify) {
  CosiLeader leader(all, registry);
  const auto shares = exchange(leader);
  const CosiLeader::Seal refused = leader.seal(shares, /*refused=*/true);
  EXPECT_FALSE(refused.valid);
  // The refused seal carries the same signature as an unrefused one, which
  // verifies: the refusal alone made it invalid.
  EXPECT_EQ(refused.signature, leader.seal(shares).signature);
  EXPECT_TRUE(crypto::cosi_verify(record, refused.signature, *registry.aggregate(all)));
}

TEST_F(CosiLeaderTest, SurvivorSubsetSealsUnderTheSubsetKey) {
  const std::vector<ServerId> survivors{ServerId{1}, ServerId{2}, ServerId{3}};
  CosiLeader leader(survivors, registry);
  const CosiLeader::Seal seal = leader.seal(exchange(leader));
  EXPECT_TRUE(seal.valid);
  EXPECT_TRUE(crypto::cosi_verify(record, seal.signature, *registry.aggregate(survivors)));
  EXPECT_FALSE(crypto::cosi_verify(record, seal.signature, *registry.aggregate(all)));
}

// --- Batching (§4.6) -------------------------------------------------------------

TEST_F(TfCommitTest, BatchedBlockCommitsManyTransactions) {
  std::vector<txn::Transaction> batch;
  for (std::uint64_t i = 0; i < 8; ++i) {
    batch.push_back(make_txn(i + 1, {i * 2}));  // disjoint items
  }
  const auto outcome = run_round(std::move(batch));
  EXPECT_EQ(outcome.decision, Decision::kCommit);
  EXPECT_EQ(outcome.block.txns.size(), 8u);
}

class BatchBuilderTest : public ::testing::Test {
 protected:
  SignedEndTxn make(std::uint64_t seq, std::vector<ItemId> items) {
    SignedEndTxn s;
    s.request.txn.id = TxnId{0, seq};
    s.request.txn.commit_ts = Timestamp{seq, 0};
    for (const ItemId i : items) {
      s.request.txn.rw.writes.push_back(
          txn::WriteEntry{i, to_bytes("v"), std::nullopt, {}, {}});
    }
    return s;
  }
};

TEST_F(BatchBuilderTest, ConflictingTxnDeferredToNextBatch) {
  BatchBuilder builder(10);
  builder.enqueue(make(1, {5}));
  builder.enqueue(make(2, {5}));  // conflicts with txn 1
  builder.enqueue(make(3, {7}));

  const auto first = builder.next_batch();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].request.txn.id.seq, 1u);
  EXPECT_EQ(first[1].request.txn.id.seq, 3u);

  const auto second = builder.next_batch();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].request.txn.id.seq, 2u);
  EXPECT_TRUE(builder.empty());
}

TEST_F(BatchBuilderTest, RespectsMaxBatchSize) {
  BatchBuilder builder(3);
  for (std::uint64_t i = 0; i < 7; ++i) builder.enqueue(make(i, {i}));
  EXPECT_EQ(builder.next_batch().size(), 3u);
  EXPECT_EQ(builder.next_batch().size(), 3u);
  EXPECT_EQ(builder.next_batch().size(), 1u);
}

// --- 2PC baseline ----------------------------------------------------------------

class TwoPcTest : public TfCommitTest {};

TEST_F(TwoPcTest, HappyPathCommits) {
  TwoPhaseCommitCoordinator coordinator;
  Block partial = TfCommitCoordinator::make_partial_block(
      0, crypto::Digest::zero(), {make_txn(1, {0, 1})}, cohort_ids);
  const PrepareMsg prepare = coordinator.start(std::move(partial), {});

  std::vector<TwoPhaseCommitCohort> tpc;
  for (std::uint32_t i = 0; i < kServers; ++i) tpc.emplace_back(ServerId{i}, *shards[i]);
  std::vector<PrepareVoteMsg> votes;
  for (auto& c : tpc) votes.push_back(c.handle_prepare(prepare));

  const auto outcome = coordinator.on_votes(votes);
  EXPECT_EQ(outcome.decision, Decision::kCommit);
  EXPECT_FALSE(outcome.block.cosign.has_value());  // trusted: no co-sign
  EXPECT_TRUE(outcome.block.roots.empty());        // trusted: no Merkle roots
}

TEST_F(TwoPcTest, AnyAbortVoteAborts) {
  TwoPhaseCommitCoordinator coordinator;
  // Make server 1's item stale so it votes abort.
  shards[1]->apply_write(1, to_bytes("newer"), Timestamp{50, 0});
  Block partial = TfCommitCoordinator::make_partial_block(
      0, crypto::Digest::zero(), {make_txn(1, {0, 1})}, cohort_ids);
  const PrepareMsg prepare = coordinator.start(std::move(partial), {});
  std::vector<TwoPhaseCommitCohort> tpc;
  for (std::uint32_t i = 0; i < kServers; ++i) tpc.emplace_back(ServerId{i}, *shards[i]);
  std::vector<PrepareVoteMsg> votes;
  for (auto& c : tpc) votes.push_back(c.handle_prepare(prepare));
  EXPECT_EQ(coordinator.on_votes(votes).decision, Decision::kAbort);
}

}  // namespace
}  // namespace fides::commit

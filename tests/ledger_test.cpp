// Unit tests for blocks (Table 1), the tamper-proof log, and chain
// validation / correct-log selection (Lemmas 6 & 7).
#include <gtest/gtest.h>

#include "crypto/cosi.hpp"
#include "ledger/chain_validation.hpp"
#include "ledger/checkpoint.hpp"
#include "ledger/log.hpp"

namespace fides::ledger {
namespace {

std::vector<crypto::KeyPair> make_keys(std::size_t n) {
  std::vector<crypto::KeyPair> keys;
  for (std::size_t i = 0; i < n; ++i) keys.push_back(crypto::KeyPair::deterministic(i));
  return keys;
}

std::vector<crypto::PublicKey> pks_of(const std::vector<crypto::KeyPair>& keys) {
  std::vector<crypto::PublicKey> pks;
  for (const auto& k : keys) pks.push_back(k.public_key());
  return pks;
}

txn::Transaction make_txn(std::uint64_t ts, ItemId item, std::string value) {
  txn::Transaction t;
  t.id = TxnId{0, ts};
  t.commit_ts = Timestamp{ts, 0};
  t.rw.writes.push_back(txn::WriteEntry{item, to_bytes(value), std::nullopt, {}, {}});
  return t;
}

/// A CoSi round over `record` in which slot i answers with
/// keys[signers[i]]: a server named twice answers twice, under two nonces.
crypto::CosiSignature cosign_record(BytesView record, const std::vector<crypto::KeyPair>& keys,
                                    const std::vector<ServerId>& signers,
                                    std::uint64_t round) {
  std::vector<crypto::CosiCommitment> comms;
  std::vector<crypto::AffinePoint> vs;
  for (std::size_t i = 0; i < signers.size(); ++i) {
    comms.push_back(crypto::cosi_commit(keys[signers[i].value], record, round * 64 + i));
    vs.push_back(comms.back().v);
  }
  const auto v = crypto::cosi_aggregate_commitments(vs);
  const auto ch = crypto::cosi_challenge(v, record);
  std::vector<crypto::U256> rs;
  for (std::size_t i = 0; i < signers.size(); ++i) {
    rs.push_back(crypto::cosi_respond(keys[signers[i].value], comms[i].secret, ch));
  }
  return crypto::CosiSignature{v, crypto::cosi_aggregate_responses(rs)};
}

/// Collectively signs a block with all `keys` and fills its cosign.
void cosign_block(Block& block, const std::vector<crypto::KeyPair>& keys) {
  block.signers.clear();
  for (std::uint32_t i = 0; i < keys.size(); ++i) block.signers.push_back(ServerId{i});
  block.cosign = cosign_record(block.signing_bytes(), keys, block.signers, block.height);
}

Block make_block(std::uint64_t height, const crypto::Digest& prev,
                 const std::vector<crypto::KeyPair>& keys) {
  Block b;
  b.height = height;
  b.prev_hash = prev;
  b.decision = Decision::kCommit;
  b.txns.push_back(make_txn(height + 1, height % 3, "v" + std::to_string(height)));
  b.set_root(ServerId{0}, crypto::sha256(to_bytes("root" + std::to_string(height))));
  cosign_block(b, keys);
  return b;
}

std::vector<Block> make_chain(std::size_t n, const std::vector<crypto::KeyPair>& keys) {
  std::vector<Block> chain;
  crypto::Digest prev = crypto::Digest::zero();
  for (std::size_t i = 0; i < n; ++i) {
    chain.push_back(make_block(i, prev, keys));
    prev = chain.back().digest();
  }
  return chain;
}

class LedgerTest : public ::testing::Test {
 protected:
  std::vector<crypto::KeyPair> keys = make_keys(3);
  crypto::KeyRegistry registry{pks_of(keys)};
};

TEST_F(LedgerTest, BlockSerializationRoundTrip) {
  const Block b = make_block(0, crypto::Digest::zero(), keys);
  const auto back = Block::deserialize(b.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, b);
  EXPECT_EQ(back->digest(), b.digest());
}

TEST_F(LedgerTest, UnsignedBlockRoundTrip) {
  Block b;
  b.height = 7;
  b.decision = Decision::kAbort;
  const auto back = Block::deserialize(b.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->cosign.has_value());
  EXPECT_EQ(*back, b);
}

TEST_F(LedgerTest, SigningBytesExcludeCosign) {
  Block b = make_block(0, crypto::Digest::zero(), keys);
  const Bytes with = b.signing_bytes();
  b.cosign.reset();
  EXPECT_EQ(b.signing_bytes(), with);
  EXPECT_NE(b.serialize(), with);  // full serialization differs
}

TEST_F(LedgerTest, DigestSensitiveToEveryField) {
  const Block base = make_block(0, crypto::Digest::zero(), keys);
  const auto d0 = base.digest();

  Block b = base;
  b.height = 1;
  EXPECT_NE(b.digest(), d0);

  b = base;
  b.decision = Decision::kAbort;
  EXPECT_NE(b.digest(), d0);

  b = base;
  b.txns[0].rw.writes[0].new_value = to_bytes("tampered");
  EXPECT_NE(b.digest(), d0);

  b = base;
  b.roots[0].root = crypto::sha256(to_bytes("other"));
  EXPECT_NE(b.digest(), d0);

  b = base;
  b.prev_hash = crypto::sha256(to_bytes("x"));
  EXPECT_NE(b.digest(), d0);

  b = base;
  b.signers.pop_back();
  EXPECT_NE(b.digest(), d0);
}

TEST_F(LedgerTest, RootAccessors) {
  Block b;
  b.set_root(ServerId{2}, crypto::sha256(to_bytes("b")));
  b.set_root(ServerId{0}, crypto::sha256(to_bytes("a")));
  ASSERT_NE(b.root_of(ServerId{0}), nullptr);
  EXPECT_EQ(b.root_of(ServerId{1}), nullptr);
  // Sorted by server id.
  EXPECT_EQ(b.roots[0].server, ServerId{0});
  EXPECT_EQ(b.roots[1].server, ServerId{2});
  // Overwrite keeps a single entry.
  b.set_root(ServerId{0}, crypto::sha256(to_bytes("a2")));
  EXPECT_EQ(b.roots.size(), 2u);
}

TEST_F(LedgerTest, LogAppendEnforcesChainDiscipline) {
  TamperProofLog log;
  Block b0 = make_block(0, crypto::Digest::zero(), keys);
  log.append(b0);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.head_hash(), b0.digest());

  Block wrong_height = make_block(5, log.head_hash(), keys);
  EXPECT_THROW(log.append(wrong_height), std::invalid_argument);

  Block wrong_prev = make_block(1, crypto::sha256(to_bytes("nope")), keys);
  EXPECT_THROW(log.append(wrong_prev), std::invalid_argument);

  Block ok = make_block(1, log.head_hash(), keys);
  log.append(ok);
  EXPECT_EQ(log.size(), 2u);
}

TEST_F(LedgerTest, LatestBlockWithRoot) {
  TamperProofLog log;
  for (const auto& b : make_chain(4, keys)) log.append(b);
  const Block* found = log.latest_block_with_root(ServerId{0});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->height, 3u);
  EXPECT_EQ(log.latest_block_with_root(ServerId{9}), nullptr);
}

TEST_F(LedgerTest, ValidateChainAcceptsHonestLog) {
  const auto chain = make_chain(5, keys);
  const auto res = validate_chain(chain, registry, true);
  EXPECT_TRUE(res.ok) << (res.issues.empty() ? "" : res.issues[0].what);
}

TEST_F(LedgerTest, ValidateChainDetectsTamperedBlock) {
  auto chain = make_chain(5, keys);
  chain[2].txns[0].rw.writes[0].new_value = to_bytes("evil");
  const auto res = validate_chain(chain, registry, true);
  EXPECT_FALSE(res.ok);
  // The tampered block's cosign breaks, and the next block's prev-hash
  // pointer no longer matches.
  bool flagged_block2 = false;
  for (const auto& issue : res.issues) flagged_block2 |= issue.block_index == 2;
  EXPECT_TRUE(flagged_block2);
}

TEST_F(LedgerTest, ValidateChainDetectsReorder) {
  auto chain = make_chain(5, keys);
  std::swap(chain[1], chain[3]);
  EXPECT_FALSE(validate_chain(chain, registry, true).ok);
}

TEST_F(LedgerTest, ValidateChainDetectsMissingCosign) {
  auto chain = make_chain(3, keys);
  chain[1].cosign.reset();
  const auto res = validate_chain(chain, registry, true);
  EXPECT_FALSE(res.ok);
}

TEST_F(LedgerTest, ValidateChainDetectsBogusSignerSet) {
  auto chain = make_chain(2, keys);
  chain[1].signers = {ServerId{42}};  // unknown server
  EXPECT_FALSE(validate_chain(chain, registry, true).ok);
}

TEST_F(LedgerTest, CosignBySignerNamedThriceRejected) {
  // S0 alone answers all three slots of a signer list {S0, S0, S0}. The
  // co-sign is valid under 3·X0, the sum of the keys as listed, but a signer
  // set may name each server once: the block must not pass as co-signed by
  // three servers.
  Block b = make_block(0, crypto::Digest::zero(), keys);
  b.signers = {ServerId{0}, ServerId{0}, ServerId{0}};
  b.cosign = cosign_record(b.signing_bytes(), keys, b.signers, 0);
  const std::vector<crypto::PublicKey> as_listed(3, keys[0].public_key());
  ASSERT_TRUE(crypto::cosi_verify(b.signing_bytes(), *b.cosign, as_listed));
  EXPECT_EQ(verify_block_cosign(b, registry), CosignVerdict::kBadSignerSet);
  EXPECT_EQ(verify_unchained_cosign(b, registry), CosignVerdict::kBadSignerSet);
  const auto res = validate_chain(std::vector<Block>{b}, registry, true);
  EXPECT_FALSE(res.ok);

  // The same server twice among distinct ones is refused as well.
  b.signers = {ServerId{0}, ServerId{1}, ServerId{0}};
  b.cosign = cosign_record(b.signing_bytes(), keys, b.signers, 1);
  EXPECT_EQ(verify_block_cosign(b, registry), CosignVerdict::kBadSignerSet);
  // The honest list, in any order, shares one cached aggregate.
  b.signers = {ServerId{2}, ServerId{0}, ServerId{1}};
  b.cosign = cosign_record(b.signing_bytes(), keys, b.signers, 2);
  EXPECT_EQ(verify_block_cosign(b, registry), CosignVerdict::kOk);
  EXPECT_EQ(registry.aggregate(b.signers),
            registry.aggregate(std::vector<ServerId>{ServerId{0}, ServerId{1}, ServerId{2}}));
}

TEST_F(LedgerTest, CheckpointBySignerNamedThriceRejected) {
  TamperProofLog log;
  for (const auto& b : make_chain(3, keys)) log.append(b);
  Checkpoint cp = make_checkpoint(log.blocks(), {ServerId{0}, ServerId{0}, ServerId{0}});
  cp.cosign = cosign_record(cp.signing_bytes(), keys, cp.signers, 7);
  const std::vector<crypto::PublicKey> as_listed(3, keys[0].public_key());
  ASSERT_TRUE(crypto::cosi_verify(cp.signing_bytes(), *cp.cosign, as_listed));
  EXPECT_FALSE(validate_checkpoint(cp, registry));
  EXPECT_FALSE(validate_chain_from(cp, log.blocks(), registry).ok);

  cp.signers = {ServerId{0}, ServerId{1}, ServerId{2}};
  cp.cosign = cosign_record(cp.signing_bytes(), keys, cp.signers, 8);
  EXPECT_TRUE(validate_checkpoint(cp, registry));
}

TEST_F(LedgerTest, ValidateChainWithoutCosignFor2pc) {
  auto chain = make_chain(3, keys);
  for (auto& b : chain) b.cosign.reset();
  // Clearing cosign changes each digest, so rebuild pointers.
  crypto::Digest prev = crypto::Digest::zero();
  for (auto& b : chain) {
    b.prev_hash = prev;
    prev = b.digest();
  }
  EXPECT_TRUE(validate_chain(chain, registry, false).ok);
}

TEST_F(LedgerTest, SelectCorrectLogPicksLongestValid) {
  const auto chain = make_chain(6, keys);
  std::vector<std::vector<Block>> logs(3, chain);
  logs[1].resize(4);                                      // Lemma 7: truncated tail
  logs[2][1].txns[0].commit_ts = Timestamp{999, 9};       // Lemma 6: tampered
  const std::vector<std::span<const Block>> views(logs.begin(), logs.end());
  const auto sel = select_correct_log(views, registry);
  ASSERT_TRUE(sel.chosen.has_value());
  EXPECT_EQ(*sel.chosen, 0u);
  EXPECT_EQ(sel.incomplete, (std::vector<std::size_t>{1}));
  EXPECT_EQ(sel.invalid, (std::vector<std::size_t>{2}));
}

TEST_F(LedgerTest, SelectCorrectLogAllInvalid) {
  auto chain = make_chain(3, keys);
  chain[0].decision = Decision::kAbort;  // breaks cosign everywhere
  const std::vector<std::span<const Block>> logs(3, chain);
  const auto sel = select_correct_log(logs, registry);
  EXPECT_FALSE(sel.chosen.has_value());
  EXPECT_EQ(sel.invalid.size(), 3u);
}

TEST_F(LedgerTest, LogMaliciousMutators) {
  TamperProofLog log;
  for (const auto& b : make_chain(5, keys)) log.append(b);

  log.reorder(1, 3);
  EXPECT_FALSE(validate_chain(log.blocks(), registry, true).ok);
  log.reorder(1, 3);  // restore
  EXPECT_TRUE(validate_chain(log.blocks(), registry, true).ok);

  log.truncate_tail(3);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_TRUE(validate_chain(log.blocks(), registry, true).ok);  // prefix still valid

  // The blocks carry no reads, so targeting one is an error, not UB.
  EXPECT_THROW(log.tamper_read_value(0, 0, 0, to_bytes("evil")), std::out_of_range);
}

TEST_F(LedgerTest, TamperReadValueBreaksCosign) {
  TamperProofLog log;
  Block b = make_block(0, crypto::Digest::zero(), keys);
  b.txns[0].rw.reads.push_back(txn::ReadEntry{5, to_bytes("honest"), {}, {}});
  cosign_block(b, keys);  // re-sign after adding the read
  log.append(b);
  EXPECT_TRUE(validate_chain(log.blocks(), registry, true).ok);
  log.tamper_read_value(0, 0, 0, to_bytes("lie"));
  EXPECT_FALSE(validate_chain(log.blocks(), registry, true).ok);
}

}  // namespace
}  // namespace fides::ledger

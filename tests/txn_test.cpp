// Unit tests for the transaction model, RW-set builder, and OCC validation.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "txn/occ.hpp"
#include "txn/rw_set.hpp"

namespace fides::txn {
namespace {

store::Shard make_shard() {
  return store::Shard(ShardId{0}, {0, 1, 2, 3}, to_bytes("init"),
                      store::VersioningMode::kSingle);
}

Transaction make_txn(const Timestamp& ts) {
  Transaction t;
  t.id = TxnId{1, ts.logical};
  t.commit_ts = ts;
  return t;
}

TEST(RwSet, FindHelpers) {
  RwSet set;
  set.reads.push_back(ReadEntry{1, to_bytes("a"), {}, {}});
  set.writes.push_back(WriteEntry{2, to_bytes("b"), std::nullopt, {}, {}});
  EXPECT_NE(set.find_read(1), nullptr);
  EXPECT_EQ(set.find_read(2), nullptr);
  EXPECT_NE(set.find_write(2), nullptr);
  EXPECT_EQ(set.find_write(1), nullptr);
}

TEST(RwSet, TouchedItemsDeduplicated) {
  RwSet set;
  set.reads.push_back(ReadEntry{3, {}, {}, {}});
  set.writes.push_back(WriteEntry{3, {}, std::nullopt, {}, {}});
  set.writes.push_back(WriteEntry{1, {}, std::nullopt, {}, {}});
  EXPECT_EQ(set.touched_items(), (std::vector<ItemId>{1, 3}));
}

TEST(RwSet, EncodeDecodeRoundTrip) {
  RwSet set;
  set.reads.push_back(ReadEntry{7, to_bytes("val"), Timestamp{1, 2}, Timestamp{3, 4}});
  set.writes.push_back(
      WriteEntry{9, to_bytes("new"), to_bytes("old"), Timestamp{5, 6}, Timestamp{7, 8}});
  set.writes.push_back(WriteEntry{11, to_bytes("n2"), std::nullopt, {}, {}});
  Writer w;
  set.encode(w);
  Reader r(w.data());
  EXPECT_EQ(RwSet::decode(r), set);
}

TEST(Transaction, EncodeDecodeRoundTrip) {
  Transaction t = make_txn(Timestamp{10, 3});
  t.rw.reads.push_back(ReadEntry{1, to_bytes("x"), {}, {}});
  Writer w;
  t.encode(w);
  Reader r(w.data());
  EXPECT_EQ(Transaction::decode(r), t);
}

TEST(Transaction, NonConflictingDetection) {
  Transaction a = make_txn(Timestamp{1, 0});
  a.rw.reads.push_back(ReadEntry{1, {}, {}, {}});
  Transaction b = make_txn(Timestamp{2, 0});
  b.rw.writes.push_back(WriteEntry{2, {}, std::nullopt, {}, {}});
  EXPECT_TRUE(non_conflicting(a, b));
  b.rw.writes.push_back(WriteEntry{1, {}, std::nullopt, {}, {}});
  EXPECT_FALSE(non_conflicting(a, b));
}

TEST(RwSetBuilder, ReadThenWriteIsNotBlind) {
  RwSetBuilder builder;
  builder.record_read(5, to_bytes("seen"), Timestamp{1, 0}, Timestamp{2, 0});
  builder.record_write(5, to_bytes("new"), to_bytes("seen"), Timestamp{1, 0},
                       Timestamp{2, 0});
  const RwSet set = std::move(builder).build();
  ASSERT_EQ(set.writes.size(), 1u);
  EXPECT_FALSE(set.writes[0].blind());
  EXPECT_FALSE(set.writes[0].old_value.has_value());
}

TEST(RwSetBuilder, BlindWriteCarriesOldValue) {
  RwSetBuilder builder;
  builder.record_write(5, to_bytes("new"), to_bytes("previous"), Timestamp{1, 0},
                       Timestamp{2, 0});
  const RwSet set = std::move(builder).build();
  ASSERT_EQ(set.writes.size(), 1u);
  EXPECT_TRUE(set.writes[0].blind());
  EXPECT_EQ(to_string(*set.writes[0].old_value), "previous");
}

TEST(RwSetBuilder, RepeatedWriteKeepsFirstAccessMetadata) {
  RwSetBuilder builder;
  builder.record_write(5, to_bytes("w1"), to_bytes("old"), Timestamp{1, 0},
                       Timestamp{2, 0});
  builder.record_write(5, to_bytes("w2"), to_bytes("ignored"), Timestamp{9, 9},
                       Timestamp{9, 9});
  const RwSet set = std::move(builder).build();
  ASSERT_EQ(set.writes.size(), 1u);
  EXPECT_EQ(to_string(set.writes[0].new_value), "w2");
  EXPECT_EQ(to_string(*set.writes[0].old_value), "old");
  EXPECT_EQ(set.writes[0].rts, (Timestamp{1, 0}));
}

// --- OCC validation ------------------------------------------------------------

TEST(Occ, FreshTransactionCommits) {
  store::Shard shard = make_shard();
  Transaction t = make_txn(Timestamp{5, 0});
  t.rw.reads.push_back(ReadEntry{0, to_bytes("init"), {}, {}});
  t.rw.writes.push_back(WriteEntry{1, to_bytes("w"), to_bytes("init"), {}, {}});
  const auto result = validate_occ(shard, t);
  EXPECT_TRUE(result.ok()) << result.reason;
}

TEST(Occ, StaleReadAborts) {
  store::Shard shard = make_shard();
  shard.apply_write(0, to_bytes("newer"), Timestamp{3, 0});
  Transaction t = make_txn(Timestamp{5, 0});
  // The read observed the initial version (wts zero) but the item moved on.
  t.rw.reads.push_back(ReadEntry{0, to_bytes("init"), {}, kTimestampZero});
  EXPECT_FALSE(validate_occ(shard, t).ok());
}

TEST(Occ, RwConflictAborts) {
  store::Shard shard = make_shard();
  shard.apply_write(0, to_bytes("v"), Timestamp{9, 0});
  Transaction t = make_txn(Timestamp{5, 0});  // commits *before* the write it read
  t.rw.reads.push_back(ReadEntry{0, to_bytes("v"), {}, Timestamp{9, 0}});
  const auto result = validate_occ(shard, t);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.reason.find("RW-conflict"), std::string::npos);
}

TEST(Occ, WwConflictAborts) {
  store::Shard shard = make_shard();
  shard.apply_write(1, to_bytes("v"), Timestamp{9, 0});
  Transaction t = make_txn(Timestamp{5, 0});
  t.rw.writes.push_back(WriteEntry{1, to_bytes("w"), to_bytes("v"), {}, Timestamp{9, 0}});
  const auto result = validate_occ(shard, t);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.reason.find("WW-conflict"), std::string::npos);
}

TEST(Occ, WrConflictAborts) {
  store::Shard shard = make_shard();
  shard.update_read_ts(1, Timestamp{9, 0});
  Transaction t = make_txn(Timestamp{5, 0});
  t.rw.writes.push_back(WriteEntry{1, to_bytes("w"), to_bytes("init"), {}, {}});
  const auto result = validate_occ(shard, t);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.reason.find("WR-conflict"), std::string::npos);
}

TEST(Occ, StaleNonBlindWriteAborts) {
  store::Shard shard = make_shard();
  shard.apply_write(1, to_bytes("v2"), Timestamp{3, 0});
  Transaction t = make_txn(Timestamp{5, 0});
  // Non-blind write based on the initial version, but the item advanced.
  t.rw.writes.push_back(WriteEntry{1, to_bytes("w"), std::nullopt, {}, kTimestampZero});
  t.rw.reads.push_back(ReadEntry{1, to_bytes("init"), {}, kTimestampZero});
  EXPECT_FALSE(validate_occ(shard, t).ok());
}

TEST(Occ, ForeignItemsIgnored) {
  store::Shard shard = make_shard();  // owns items 0..3
  Transaction t = make_txn(Timestamp{5, 0});
  t.rw.reads.push_back(ReadEntry{100, to_bytes("elsewhere"), {}, Timestamp{99, 0}});
  EXPECT_TRUE(validate_occ(shard, t).ok());
}

// A signed write set that names an owned item twice would apply it twice at
// one commit timestamp: the shard and its speculative overlay both refuse
// it. A repeat of another shard's item is left to that shard.
TEST(Occ, DuplicateOwnedWriteAborts) {
  const store::Shard shard = make_shard();  // owns items 0..3
  const store::ShardOverlay overlay(shard);
  Transaction dup = make_txn(Timestamp{5, 0});
  dup.rw.writes.push_back(WriteEntry{1, to_bytes("a"), to_bytes("init"), {}, {}});
  dup.rw.writes.push_back(WriteEntry{2, to_bytes("b"), to_bytes("init"), {}, {}});
  dup.rw.writes.push_back(WriteEntry{1, to_bytes("c"), to_bytes("init"), {}, {}});
  Transaction foreign = make_txn(Timestamp{5, 0});
  foreign.rw.writes.push_back(WriteEntry{100, to_bytes("a"), to_bytes("init"), {}, {}});
  foreign.rw.writes.push_back(WriteEntry{1, to_bytes("b"), to_bytes("init"), {}, {}});
  foreign.rw.writes.push_back(WriteEntry{100, to_bytes("c"), to_bytes("init"), {}, {}});

  const auto check = [&](const auto& state, const char* name) {
    const ValidationResult refused = validate_occ(state, dup);
    EXPECT_FALSE(refused.ok()) << name;
    EXPECT_NE(refused.reason.find("item 1 twice"), std::string::npos) << name;
    const ValidationResult accepted = validate_occ(state, foreign);
    EXPECT_TRUE(accepted.ok()) << name << ": " << accepted.reason;
  };
  check(shard, "shard");
  check(overlay, "overlay");
}

TEST(Occ, ApplyCommittedInstallsWritesAndTimestamps) {
  store::Shard shard = make_shard();
  Transaction t = make_txn(Timestamp{5, 0});
  t.rw.reads.push_back(ReadEntry{0, to_bytes("init"), {}, {}});
  t.rw.writes.push_back(WriteEntry{1, to_bytes("w"), to_bytes("init"), {}, {}});
  apply_committed(shard, t);
  EXPECT_EQ(to_string(shard.peek(1).value), "w");
  EXPECT_EQ(shard.peek(1).wts, t.commit_ts);
  EXPECT_EQ(shard.peek(1).rts, t.commit_ts);
  EXPECT_EQ(shard.peek(0).rts, t.commit_ts);  // read timestamp advanced
  EXPECT_TRUE(shard.peek(0).wts.is_zero());   // reads do not write
}

TEST(Occ, SequentialTimestampedTransactionsAllCommit) {
  store::Shard shard = make_shard();
  for (std::uint64_t i = 1; i <= 10; ++i) {
    Transaction t = make_txn(Timestamp{i, 0});
    const store::ItemRecord& cur = shard.peek(0);
    t.rw.reads.push_back(ReadEntry{0, cur.value, cur.rts, cur.wts});
    t.rw.writes.push_back(
        WriteEntry{0, to_bytes("v" + std::to_string(i)), std::nullopt, cur.rts, cur.wts});
    const auto result = validate_occ(shard, t);
    ASSERT_TRUE(result.ok()) << "txn " << i << ": " << result.reason;
    apply_committed(shard, t);
  }
  EXPECT_EQ(to_string(shard.peek(0).value), "v10");
}

// Differential sweep for the one apply rule: random blocks — duplicate
// write entries, items of other shards, blind writes, read-only
// transactions, timestamps in any order — applied through apply_committed
// to a Shard and to a ShardOverlay over an identical shard must leave every
// item with the same record, and Shard::root_after over the blocks' flat
// write list (what a speculative vote computes) must equal the applied
// shard's root. The overlay's base is never mutated.
TEST(ApplyCommitted, ShardAndOverlayAgreeOnRandomBlocks) {
  // Shard 0 of 2 owns the even items of [0, 32); odd items are foreign.
  const std::vector<ItemId> items = store::items_for_shard(ShardId{0}, 2, 16);
  const store::Shard pristine(ShardId{0}, items, to_bytes("init"),
                              store::VersioningMode::kSingle);
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    store::Shard applied = pristine;
    const store::Shard base = pristine;
    store::ShardOverlay overlay(base);
    std::vector<std::pair<ItemId, Bytes>> writes;

    const std::uint64_t blocks = 1 + rng.uniform(4);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const std::uint64_t txns = 1 + rng.uniform(5);
      for (std::uint64_t i = 0; i < txns; ++i) {
        Transaction t = make_txn(Timestamp{1 + rng.uniform(40), 0});
        for (std::uint64_t r = rng.uniform(4); r > 0; --r) {
          t.rw.reads.push_back(ReadEntry{rng.uniform(32), to_bytes("init"), {}, {}});
        }
        const bool read_only = rng.uniform(4) == 0;
        for (std::uint64_t w = read_only ? 0 : 1 + rng.uniform(4); w > 0; --w) {
          // One write in three repeats the previous item (duplicate entry).
          const ItemId id = !t.rw.writes.empty() && rng.uniform(3) == 0
                                ? t.rw.writes.back().id
                                : rng.uniform(32);
          std::optional<Bytes> old_value;
          if (rng.uniform(2) == 0) old_value = to_bytes("init");  // blind write
          t.rw.writes.push_back(WriteEntry{
              id, to_bytes("v" + std::to_string(rng.uniform(1000))), old_value, {}, {}});
        }
        apply_committed(applied, t);
        apply_committed(overlay, t);
        for (const auto& w : t.rw.writes) {
          if (base.contains(w.id)) writes.emplace_back(w.id, w.new_value);
        }
      }
    }

    for (const ItemId id : items) {
      const store::ItemRecord& want = applied.peek(id);
      const store::ItemRecord& got = overlay.peek(id);
      EXPECT_EQ(got.value, want.value) << "seed " << seed << " item " << id;
      EXPECT_EQ(got.rts, want.rts) << "seed " << seed << " item " << id;
      EXPECT_EQ(got.wts, want.wts) << "seed " << seed << " item " << id;
      EXPECT_EQ(base.peek(id).value, pristine.peek(id).value) << "base mutated";
    }
    EXPECT_EQ(base.root_after(writes), applied.merkle_root()) << "seed " << seed;
    EXPECT_EQ(base.merkle_root(), pristine.merkle_root()) << "base mutated";
  }
}

}  // namespace
}  // namespace fides::txn

// Unit tests for the datastore substrate: shards, version chains,
// placement.
#include <gtest/gtest.h>

#include "store/shard.hpp"

namespace fides::store {
namespace {

Shard make_shard(VersioningMode mode, std::size_t items = 8) {
  std::vector<ItemId> ids;
  for (std::size_t i = 0; i < items; ++i) ids.push_back(i * 10);
  return Shard(ShardId{0}, std::move(ids), to_bytes("init"), mode);
}

TEST(Shard, InitialState) {
  Shard s = make_shard(VersioningMode::kSingle);
  EXPECT_EQ(s.item_count(), 8u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(70));
  EXPECT_FALSE(s.contains(5));
  const ItemRecord& rec = s.peek(10);
  EXPECT_EQ(to_string(rec.value), "init");
  EXPECT_TRUE(rec.rts.is_zero());
  EXPECT_TRUE(rec.wts.is_zero());
}

TEST(Shard, UnknownItemThrows) {
  Shard s = make_shard(VersioningMode::kSingle);
  EXPECT_THROW(s.read(5), std::out_of_range);
  EXPECT_THROW(s.peek(5), std::out_of_range);
  EXPECT_THROW(s.leaf_index(5), std::out_of_range);
}

TEST(Shard, ApplyWriteUpdatesValueAndTimestamps) {
  Shard s = make_shard(VersioningMode::kSingle);
  const Timestamp ts{5, 1};
  s.apply_write(10, to_bytes("v1"), ts);
  const ItemRecord& rec = s.peek(10);
  EXPECT_EQ(to_string(rec.value), "v1");
  EXPECT_EQ(rec.wts, ts);
}

TEST(Shard, UpdateReadTsMonotone) {
  Shard s = make_shard(VersioningMode::kSingle);
  s.update_read_ts(10, Timestamp{5, 0});
  s.update_read_ts(10, Timestamp{3, 0});  // lower: must not regress
  EXPECT_EQ(s.peek(10).rts, (Timestamp{5, 0}));
}

TEST(Shard, WriteChangesMerkleRoot) {
  Shard s = make_shard(VersioningMode::kSingle);
  const auto before = s.merkle_root();
  s.apply_write(10, to_bytes("v1"), Timestamp{1, 0});
  EXPECT_NE(s.merkle_root(), before);
}

TEST(Shard, RootAfterMatchesActualApply) {
  Shard s = make_shard(VersioningMode::kSingle);
  const std::vector<std::pair<ItemId, Bytes>> writes = {{10, to_bytes("a")},
                                                        {30, to_bytes("b")}};
  const auto predicted = s.root_after(writes);
  EXPECT_NE(predicted, s.merkle_root());  // prediction, not mutation
  s.apply_write(10, to_bytes("a"), Timestamp{1, 0});
  s.apply_write(30, to_bytes("b"), Timestamp{1, 0});
  EXPECT_EQ(s.merkle_root(), predicted);
}

TEST(Shard, CurrentTreeVoAuthenticatesAgainstRoot) {
  Shard s = make_shard(VersioningMode::kSingle);
  s.apply_write(20, to_bytes("x"), Timestamp{1, 0});
  const auto vo = merkle::make_vo(s.tree(), s.leaf_index(20));
  EXPECT_TRUE(merkle::verify_vo(item_leaf_digest(20, to_bytes("x")), vo,
                                s.merkle_root()));
}

TEST(Shard, CorruptValueLeavesTreeStale) {
  // The §5 Scenario 3 shape: value corrupted behind the Merkle tree's back,
  // so the stored value no longer authenticates.
  Shard s = make_shard(VersioningMode::kSingle);
  s.apply_write(20, to_bytes("honest"), Timestamp{1, 0});
  const auto root = s.merkle_root();
  s.corrupt_value(20, to_bytes("evil"));
  EXPECT_EQ(s.merkle_root(), root);  // tree untouched
  EXPECT_FALSE(merkle::verify_vo(
      item_leaf_digest(20, s.peek(20).value), merkle::make_vo(s.tree(), s.leaf_index(20)),
      root));
}

TEST(Shard, MultiVersionKeepsHistory) {
  Shard s = make_shard(VersioningMode::kMulti);
  s.apply_write(10, to_bytes("v1"), Timestamp{1, 0});
  s.apply_write(10, to_bytes("v2"), Timestamp{2, 0});
  EXPECT_EQ(to_string(*s.value_at_version(10, Timestamp{1, 0})), "v1");
  EXPECT_EQ(to_string(*s.value_at_version(10, Timestamp{2, 0})), "v2");
  // Timestamp between versions resolves to the earlier one.
  EXPECT_EQ(to_string(*s.value_at_version(10, Timestamp{1, 999})), "v1");
}

TEST(Shard, TreeAtVersionReconstructsHistoricalRoot) {
  Shard s = make_shard(VersioningMode::kMulti);
  s.apply_write(10, to_bytes("v1"), Timestamp{1, 0});
  const auto root_v1 = s.merkle_root();
  s.apply_write(10, to_bytes("v2"), Timestamp{2, 0});
  EXPECT_NE(s.merkle_root(), root_v1);
  EXPECT_EQ(s.tree_at_version(Timestamp{1, 0}).root(), root_v1);
  EXPECT_EQ(s.tree_at_version(Timestamp{2, 0}).root(), s.merkle_root());
}

TEST(Shard, TreeAtVersionRequiresMultiVersion) {
  Shard s = make_shard(VersioningMode::kSingle);
  EXPECT_THROW(s.tree_at_version(Timestamp{1, 0}), std::logic_error);
  EXPECT_FALSE(s.value_at_version(10, Timestamp{1, 0}).has_value());
}

TEST(Shard, CorruptVersionAltersHistoricalTree) {
  Shard s = make_shard(VersioningMode::kMulti);
  s.apply_write(10, to_bytes("v1"), Timestamp{1, 0});
  const auto honest_root = s.tree_at_version(Timestamp{1, 0}).root();
  ASSERT_TRUE(s.corrupt_version(10, Timestamp{1, 0}, to_bytes("evil")));
  EXPECT_NE(s.tree_at_version(Timestamp{1, 0}).root(), honest_root);
}

TEST(VersionChain, AtSelectsLatestNotAfter) {
  VersionChain chain(to_bytes("v0"));
  chain.append(Timestamp{10, 0}, to_bytes("v10"));
  chain.append(Timestamp{20, 0}, to_bytes("v20"));
  EXPECT_EQ(to_string(chain.at(Timestamp{5, 0})->value), "v0");
  EXPECT_EQ(to_string(chain.at(Timestamp{10, 0})->value), "v10");
  EXPECT_EQ(to_string(chain.at(Timestamp{15, 0})->value), "v10");
  EXPECT_EQ(to_string(chain.at(Timestamp{99, 0})->value), "v20");
  EXPECT_EQ(chain.version_count(), 3u);
}

TEST(VersionChain, RejectsNonMonotonicAppend) {
  VersionChain chain(to_bytes("v0"));
  chain.append(Timestamp{10, 0}, to_bytes("v10"));
  EXPECT_THROW(chain.append(Timestamp{10, 0}, to_bytes("dup")), std::invalid_argument);
  EXPECT_THROW(chain.append(Timestamp{5, 0}, to_bytes("old")), std::invalid_argument);
}

TEST(Placement, RoundRobinPartition) {
  // Every item in [0, n*k) belongs to exactly one shard, and that shard's
  // item list contains it.
  const std::uint32_t servers = 4, per_shard = 25;
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < servers; ++s) {
    const auto items = items_for_shard(ShardId{s}, servers, per_shard);
    EXPECT_EQ(items.size(), per_shard);
    for (const ItemId item : items) {
      EXPECT_EQ(shard_for_item(item, servers), (ShardId{s}));
    }
    total += items.size();
  }
  EXPECT_EQ(total, static_cast<std::size_t>(servers) * per_shard);
}

TEST(Shard, DuplicateItemIdsDeduplicated) {
  Shard s(ShardId{0}, {5, 5, 7}, to_bytes("x"), VersioningMode::kSingle);
  EXPECT_EQ(s.item_count(), 2u);
}

}  // namespace
}  // namespace fides::store

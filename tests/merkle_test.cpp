// Unit + property tests for the Merkle hash tree and Verification Objects.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "merkle/proof.hpp"

namespace fides::merkle {
namespace {

using crypto::Digest;
using crypto::sha256;

Digest leaf(std::uint64_t i) {
  return sha256(to_bytes("leaf-" + std::to_string(i)));
}

std::vector<Digest> make_leaves(std::size_t n) {
  std::vector<Digest> leaves;
  leaves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) leaves.push_back(leaf(i));
  return leaves;
}

TEST(MerkleTree, SingleLeafRootIsLeaf) {
  const auto leaves = make_leaves(1);
  MerkleTree t(leaves);
  EXPECT_EQ(t.root(), leaves[0]);
}

TEST(MerkleTree, TwoLeavesMatchManualHash) {
  const auto leaves = make_leaves(2);
  MerkleTree t(leaves);
  EXPECT_EQ(t.root(), crypto::sha256_pair(leaves[0], leaves[1]));
}

TEST(MerkleTree, FourLeavesMatchFigure2) {
  // The §2.3 example shape: h_{a,b,c,d} = h(h(h(a)|h(b)) | h(h(c)|h(d))).
  const auto leaves = make_leaves(4);
  MerkleTree t(leaves);
  const Digest left = crypto::sha256_pair(leaves[0], leaves[1]);
  const Digest right = crypto::sha256_pair(leaves[2], leaves[3]);
  EXPECT_EQ(t.root(), crypto::sha256_pair(left, right));
}

TEST(MerkleTree, NonPowerOfTwoPadsWithZero) {
  const auto leaves = make_leaves(3);
  MerkleTree t(leaves);
  const Digest left = crypto::sha256_pair(leaves[0], leaves[1]);
  const Digest right = crypto::sha256_pair(leaves[2], Digest::zero());
  EXPECT_EQ(t.root(), crypto::sha256_pair(left, right));
}

TEST(MerkleTree, SetLeafMatchesFullRebuild) {
  auto leaves = make_leaves(10);
  MerkleTree t(leaves);
  leaves[7] = leaf(99);
  t.set_leaf(7, leaf(99));
  EXPECT_EQ(t.root(), MerkleTree(leaves).root());
}

TEST(MerkleTree, SetLeafRehashCountIsDepth) {
  MerkleTree t(make_leaves(16));
  EXPECT_EQ(t.set_leaf(3, leaf(50)), 4u);  // 16 leaves -> depth 4
}

TEST(MerkleTree, RootAfterDoesNotMutate) {
  MerkleTree t(make_leaves(8));
  const Digest before = t.root();
  const std::vector<std::pair<std::size_t, Digest>> updates = {{2, leaf(77)}};
  const Digest hypothetical = t.root_after(updates);
  EXPECT_EQ(t.root(), before);
  EXPECT_NE(hypothetical, before);
}

TEST(MerkleTree, RootAfterMatchesApplying) {
  MerkleTree t(make_leaves(8));
  const std::vector<std::pair<std::size_t, Digest>> updates = {
      {1, leaf(70)}, {5, leaf(71)}, {6, leaf(72)}};
  const Digest hypothetical = t.root_after(updates);
  for (const auto& [i, d] : updates) t.set_leaf(i, d);
  EXPECT_EQ(t.root(), hypothetical);
}

TEST(MerkleTree, RootAfterEmptyUpdatesIsRoot) {
  MerkleTree t(make_leaves(8));
  EXPECT_EQ(t.root_after({}), t.root());
}

TEST(MerkleTree, RootAfterLastWriteWins) {
  MerkleTree t(make_leaves(4));
  const std::vector<std::pair<std::size_t, Digest>> updates = {{2, leaf(70)},
                                                               {2, leaf(71)}};
  MerkleTree expect(make_leaves(4));
  expect.set_leaf(2, leaf(71));
  EXPECT_EQ(t.root_after(updates), expect.root());
}

TEST(MerkleTree, SiblingUpdatesInOneOverlay) {
  // Adjacent leaves share a parent; the overlay must combine them.
  MerkleTree t(make_leaves(8));
  const std::vector<std::pair<std::size_t, Digest>> updates = {{4, leaf(80)},
                                                               {5, leaf(81)}};
  const Digest hypothetical = t.root_after(updates);
  t.set_leaf(4, leaf(80));
  t.set_leaf(5, leaf(81));
  EXPECT_EQ(t.root(), hypothetical);
}

TEST(MerkleTree, EmptyTreeRootIsDomainSeparated) {
  // Regression: build_interior never runs at cap == 1, so an empty tree
  // used to expose the raw zero digest as its root — indistinguishable from
  // a one-leaf tree whose leaf happens to be Digest::zero().
  MerkleTree empty(0);
  MerkleTree one_zero_leaf(std::vector<Digest>{Digest::zero()});
  EXPECT_NE(empty.root(), one_zero_leaf.root());
  EXPECT_NE(empty.root(), Digest::zero());
  EXPECT_EQ(empty.root(), sha256(to_bytes("fides-merkle-empty-tree")));
  // The span constructor over zero leaves is the same empty tree.
  EXPECT_EQ(MerkleTree(std::vector<Digest>{}).root(), empty.root());
  // And root_after with no updates (the only legal batch) echoes it.
  EXPECT_EQ(empty.root_after({}), empty.root());
}

TEST(MerkleTree, OverflowingLeafCountThrowsLengthError) {
  // Regression: next_pow2 doubled forever once the capacity wrapped to 0.
  constexpr std::size_t kTooBig = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(MerkleTree t(kTooBig), std::length_error);
  EXPECT_THROW(MerkleTree t(kTooBig / 2 + 2), std::length_error);
  // The guard's own boundary: a capacity of SIZE_MAX/2 + 1 would not loop,
  // but the 2*capacity node array would wrap to zero elements — counts in
  // (SIZE_MAX/4 + 1, SIZE_MAX/2 + 1] must throw too, not write out of
  // bounds into an empty vector.
  EXPECT_THROW(MerkleTree t(kTooBig / 2 + 1), std::length_error);
  EXPECT_THROW(MerkleTree t(kTooBig / 4 + 2), std::length_error);
}

TEST(MerkleTree, RootAfterConcatenatedBatchesMatchesSequentialApply) {
  // A chain of in-flight blocks is one root_after over their concatenated
  // updates: a later update to a leaf wins.
  MerkleTree t(make_leaves(8));
  const std::vector<std::pair<std::size_t, Digest>> b1 = {{1, leaf(70)}, {5, leaf(71)}};
  const std::vector<std::pair<std::size_t, Digest>> b2 = {{5, leaf(72)}, {6, leaf(73)}};
  const std::vector<std::pair<std::size_t, Digest>> b3 = {{1, leaf(74)}};
  std::vector<std::pair<std::size_t, Digest>> flat;
  for (const auto& batch : {b1, b2, b3}) flat.insert(flat.end(), batch.begin(), batch.end());
  const Digest chained = t.root_after(flat);

  MerkleTree applied(make_leaves(8));
  for (const auto& batch : {b1, b2, b3}) {
    for (const auto& [i, d] : batch) applied.set_leaf(i, d);
  }
  EXPECT_EQ(chained, applied.root());
  // Later batches must win over earlier ones per leaf.
  MerkleTree wrong_order(make_leaves(8));
  wrong_order.set_leaf(1, leaf(70));
  wrong_order.set_leaf(5, leaf(72));
  wrong_order.set_leaf(6, leaf(73));
  wrong_order.set_leaf(1, leaf(74));
  EXPECT_EQ(chained, wrong_order.root());
  EXPECT_EQ(t.root(), MerkleTree(make_leaves(8)).root()) << "overlay must not mutate";
}

TEST(MerkleTree, RootAfterConcatenatedEmptyBatches) {
  MerkleTree t(make_leaves(8));
  EXPECT_EQ(t.root_after({}), t.root());
  const std::vector<std::pair<std::size_t, Digest>> none;
  std::vector<std::pair<std::size_t, Digest>> flat;
  for (const auto& batch : {none, none}) flat.insert(flat.end(), batch.begin(), batch.end());
  EXPECT_EQ(t.root_after(flat), t.root());
}

TEST(MerkleTree, OutOfRangeThrows) {
  MerkleTree t(make_leaves(4));
  EXPECT_THROW(t.set_leaf(4, leaf(1)), std::out_of_range);
  EXPECT_THROW(t.leaf(4), std::out_of_range);
  EXPECT_THROW(t.sibling_path(4), std::out_of_range);
  const std::vector<std::pair<std::size_t, Digest>> bad = {{9, leaf(1)}};
  EXPECT_THROW(t.root_after(bad), std::out_of_range);
}

TEST(VerificationObject, ProvesMembership) {
  const auto leaves = make_leaves(10);
  MerkleTree t(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const VerificationObject vo = make_vo(t, i);
    EXPECT_TRUE(verify_vo(leaves[i], vo, t.root())) << "leaf " << i;
  }
}

TEST(VerificationObject, RejectsWrongValue) {
  const auto leaves = make_leaves(10);
  MerkleTree t(leaves);
  const VerificationObject vo = make_vo(t, 3);
  EXPECT_FALSE(verify_vo(leaf(999), vo, t.root()));
}

TEST(VerificationObject, RejectsWrongPosition) {
  const auto leaves = make_leaves(10);
  MerkleTree t(leaves);
  VerificationObject vo = make_vo(t, 3);
  vo.leaf_index = 2;  // right value, wrong claimed position
  EXPECT_FALSE(verify_vo(leaves[3], vo, t.root()));
}

TEST(VerificationObject, SizeIsLogN) {
  MerkleTree t(make_leaves(1024));
  EXPECT_EQ(make_vo(t, 0).siblings.size(), 10u);  // log2(1024)
}

TEST(VerificationObject, SerializationRoundTrip) {
  MerkleTree t(make_leaves(10));
  const VerificationObject vo = make_vo(t, 6);
  const auto back = VerificationObject::deserialize(vo.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, vo);
}

TEST(VerificationObject, DeserializeRejectsGarbage) {
  EXPECT_FALSE(VerificationObject::deserialize(to_bytes("junk")).has_value());
}

// Property sweep: over a range of tree sizes, random incremental updates
// stay consistent with full rebuilds and all VOs keep verifying.
class MerklePropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerklePropertyTest, IncrementalUpdatesMatchRebuildAndProofsHold) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 7);
  auto leaves = make_leaves(n);
  MerkleTree t(leaves);

  for (int step = 0; step < 20; ++step) {
    const std::size_t idx = rng.uniform(n);
    const Digest d = leaf(1000 + rng.uniform(100000));
    leaves[idx] = d;
    t.set_leaf(idx, d);
  }
  EXPECT_EQ(t.root(), MerkleTree(leaves).root());

  for (int probe = 0; probe < 5; ++probe) {
    const std::size_t idx = rng.uniform(n);
    EXPECT_TRUE(verify_vo(leaves[idx], make_vo(t, idx), t.root()));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerklePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 17, 64, 100, 1000));

// Property sweep for the overlay: random update batches — duplicate leaves,
// empty batches, full-tree updates — concatenated and fed through root_after
// must always agree with a tree rebuilt from the final leaf values, and so
// must every batch-boundary prefix (the base a speculative vote stacks on).
// Covers single-leaf trees, where the root IS the sole leaf and the overlay
// fold degenerates.
class OverlayPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OverlayPropertyTest, ConcatenatedBatchesAndPrefixesMatchFreshRebuild) {
  const std::size_t n = GetParam();
  Rng rng(n * 131 + 3);

  for (int trial = 0; trial < 10; ++trial) {
    const auto original = make_leaves(n);
    MerkleTree t(original);
    auto expected = original;

    std::vector<std::pair<std::size_t, Digest>> flat;
    const std::size_t num_batches = rng.uniform(4);  // 0..3 (0 = empty chain)
    for (std::size_t b = 0; b < num_batches; ++b) {
      std::size_t updates = rng.uniform(2 * n + 1);  // up to a full double pass
      if (rng.uniform(5) == 0) updates = 0;          // empty batch
      for (std::size_t u = 0; u < updates; ++u) {
        // uniform(n) repeats indices freely => duplicate leaves in a batch.
        const std::size_t idx = rng.uniform(n);
        const Digest d = leaf(5000 + rng.uniform(1000000));
        flat.emplace_back(idx, d);
        expected[idx] = d;
      }
      // The prefix up to this batch boundary is the root after batches 0..b.
      EXPECT_EQ(t.root_after(flat), MerkleTree(expected).root())
          << "n=" << n << " batch " << b;
    }

    EXPECT_EQ(t.root_after(flat), MerkleTree(expected).root()) << "n=" << n;
    EXPECT_EQ(t.root(), MerkleTree(original).root()) << "overlay must not mutate";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, OverlayPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 16, 33, 128));

// Differential sweep for the batched check: verify_vos must return exactly
// the per-VO verify_vo verdict for every input, hostile ones included. Each
// trial mixes honest VOs with every way a server could get one wrong, in
// random leaf order, so the shared fold sees unsorted input, repeated
// leaves and forged pairs next to honest pairs at every level.
class VerifyVosDifferentialTest : public ::testing::TestWithParam<std::size_t> {};

std::vector<bool> per_vo_verdicts(const std::vector<Digest>& leaves,
                                  const std::vector<VerificationObject>& vos,
                                  const Digest& root) {
  std::vector<bool> out;
  for (std::size_t i = 0; i < vos.size(); ++i) out.push_back(verify_vo(leaves[i], vos[i], root));
  return out;
}

std::vector<bool> batched_verdicts(const std::vector<Digest>& leaves,
                                   const std::vector<VerificationObject>& vos,
                                   const Digest& root) {
  std::vector<const VerificationObject*> ptrs;
  for (const auto& vo : vos) ptrs.push_back(&vo);
  return verify_vos(leaves, ptrs, root);
}

TEST_P(VerifyVosDifferentialTest, MatchesPerVoVerdicts) {
  const std::size_t n = GetParam();
  Rng rng(n * 977 + 5);
  std::vector<Digest> tree_leaves;
  for (std::size_t i = 0; i < n; ++i) tree_leaves.push_back(leaf(rng.uniform(1000000)));
  const MerkleTree t(tree_leaves);
  std::size_t accepted = 0, rejected = 0;

  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t k = rng.uniform(3 * n + 2);
    std::vector<Digest> leaves;
    std::vector<VerificationObject> vos;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t idx = rng.uniform(n);
      Digest d = tree_leaves[idx];
      VerificationObject vo = make_vo(t, idx);
      const std::uint64_t depth = vo.siblings.size();
      switch (rng.uniform(9)) {
        case 0:  // the stored value differs from the signed one
          d = leaf(2000000 + rng.uniform(1000));
          break;
        case 1:  // a repeat of an earlier entry, forged or not
          if (!vos.empty()) {
            const std::size_t e = rng.uniform(vos.size());
            d = leaves[e];
            vo = vos[e];
          }
          break;
        case 2:  // same leaf, one sibling changed
          if (depth > 0) vo.siblings[rng.uniform(depth)] = leaf(3000000 + rng.uniform(1000));
          break;
        case 3:  // correct leaf, garbage from some level up
          for (std::uint64_t l = depth == 0 ? 0 : rng.uniform(depth); l < depth; ++l) {
            vo.siblings[l] = leaf(4000000 + rng.uniform(1000));
          }
          break;
        case 4:  // one sibling too few or too many
          if (depth > 0 && rng.uniform(2) == 0) {
            vo.siblings.pop_back();
          } else {
            vo.siblings.push_back(leaf(5000000 + rng.uniform(1000)));
          }
          break;
        case 5:  // leaf index beyond the tree: high bits no fold reads
          vo.leaf_index += (std::uint64_t{1} + rng.uniform(1000)) << depth;
          break;
        case 6:  // a neighbour's position
          vo.leaf_index ^= std::uint64_t{1} << (depth == 0 ? 0 : rng.uniform(depth));
          break;
        default:  // honest
          break;
      }
      leaves.push_back(d);
      vos.push_back(std::move(vo));
    }

    const std::vector<bool> want = per_vo_verdicts(leaves, vos, t.root());
    EXPECT_EQ(batched_verdicts(leaves, vos, t.root()), want) << "n=" << n << " trial " << trial;
    // Against a root nothing folds to, every verdict is false.
    EXPECT_EQ(batched_verdicts(leaves, vos, leaf(9999999)), std::vector<bool>(k, false));
    for (const bool v : want) ++(v ? accepted : rejected);
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, VerifyVosDifferentialTest,
                         ::testing::Values(1, 2, 3, 7, 16, 33, 200));

TEST(VerifyVos, EmptyAndSingleInputs) {
  const auto leaves = make_leaves(10);
  const MerkleTree t(leaves);
  EXPECT_TRUE(verify_vos({}, {}, t.root()).empty());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const VerificationObject vo = make_vo(t, i);
    const VerificationObject* one = &vo;
    EXPECT_EQ(verify_vos(std::span(&leaves[i], 1), std::span(&one, 1), t.root()),
              std::vector<bool>{true});
    EXPECT_EQ(verify_vos(std::span(&leaves[(i + 1) % 10], 1), std::span(&one, 1), t.root()),
              std::vector<bool>{false});
  }
}

TEST(VerifyVos, SizeMismatchThrows) {
  const MerkleTree t(make_leaves(4));
  const VerificationObject vo = make_vo(t, 0);
  const VerificationObject* one = &vo;
  EXPECT_THROW(verify_vos({}, std::span(&one, 1), t.root()), std::invalid_argument);
}

}  // namespace
}  // namespace fides::merkle

// Merkle Hash Tree (§2.3) with O(log n) incremental updates.
//
// Each Fides shard mirrors its data items in one of these trees; the root is
// what TFCommit embeds into every block (Table 1, Σroots) and what the
// auditor checks datastore state against (Lemma 2).
//
// The tree is built over a fixed leaf universe (the shard's item set, in
// item-id order), padded to a power of two with zero digests. The protocol
// needs roots in two places, and the tree serves each with one call:
//   * set_leaf      — destructive, applied when a transaction commits;
//   * root_after    — pure, computes the root that *would* result from a list
//                     of leaf updates without touching the tree. This is the
//                     vote-phase computation: "the MHT reflects all updates
//                     in Ti assuming Ti commits; the datastore is unaffected
//                     if Ti eventually aborts" (§4.3.1 phase 2). Later
//                     updates to a leaf win, so a speculative vote stacked on
//                     in-flight blocks passes their updates first, in order,
//                     then its own.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "crypto/sha256.hpp"

namespace fides::merkle {

using crypto::Digest;

class MerkleTree {
 public:
  /// An empty tree over `leaf_count` zero leaves.
  explicit MerkleTree(std::size_t leaf_count);

  /// Builds from initial leaf digests (defines leaf_count). When `pool` is
  /// given and parallel, interior levels are hashed level-by-level with the
  /// nodes of each level fanned out across workers — same tree, built on
  /// however many cores are available (bulk provisioning / audit rebuilds).
  explicit MerkleTree(std::span<const Digest> leaves,
                      common::ThreadPool* pool = nullptr);

  std::size_t leaf_count() const { return leaf_count_; }

  const Digest& leaf(std::size_t i) const;
  Digest root() const;

  /// Replaces leaf i and recomputes the path to the root. Returns the number
  /// of interior nodes rehashed (benchmarked in Fig 14/15 reproductions).
  std::size_t set_leaf(std::size_t i, const Digest& d);

  /// Root after hypothetically applying `updates` (index, digest) in order —
  /// the tree itself is not modified, and a later update to a leaf wins.
  /// Cost O(k·log n) time and space for k updates.
  Digest root_after(std::span<const std::pair<std::size_t, Digest>> updates) const;

  /// Sibling path for leaf i, bottom-up — the Verification Object of §2.3.
  std::vector<Digest> sibling_path(std::size_t i) const;

  /// Depth of the padded tree (number of siblings in a verification object).
  std::size_t depth() const { return depth_; }

 private:
  // Heap layout: nodes_[1] is the root; children of k are 2k and 2k+1;
  // leaves occupy [cap_, 2*cap_).
  std::size_t node_index(std::size_t leaf) const { return cap_ + leaf; }

  /// Recomputes every interior node from the leaves, bottom-up. Each level
  /// only reads the level below it, so the nodes of one level hash in
  /// parallel; small levels stay serial (fan-out overhead dominates).
  void build_interior(common::ThreadPool* pool);

  /// Allocates the node array over zero leaves without hashing the interior
  /// — for constructors that install real leaves and rebuild immediately.
  struct DeferInterior {};
  MerkleTree(std::size_t leaf_count, DeferInterior);

  std::size_t leaf_count_;
  std::size_t cap_;    // leaf capacity, power of two
  std::size_t depth_;  // log2(cap_)
  std::vector<Digest> nodes_;
};

}  // namespace fides::merkle

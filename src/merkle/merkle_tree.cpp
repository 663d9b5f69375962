#include "merkle/merkle_tree.hpp"

#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace fides::merkle {

namespace {
std::size_t next_pow2(std::size_t n) {
  // Beyond SIZE_MAX/2 + 1 the doubling below wraps to 0 and loops forever —
  // and the node array needs 2*capacity slots, so the largest usable
  // capacity is one power of two lower still (SIZE_MAX/4 + 1): anything
  // above would wrap 2*cap_ to 0 and hand out an empty node array.
  constexpr std::size_t kMax = (std::numeric_limits<std::size_t>::max() / 4) + 1;
  if (n > kMax) throw std::length_error("MerkleTree: leaf count overflows capacity");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Domain-separated root of the zero-leaf tree. Without it, an empty tree's
/// root would be the raw zero digest — the same bytes a one-leaf tree whose
/// leaf happens to be Digest::zero() exposes (build_interior never hashes
/// anything at cap_ == 1, so the leaf IS the root).
const Digest& empty_tree_root() {
  static const Digest root = crypto::sha256(to_bytes("fides-merkle-empty-tree"));
  return root;
}
}  // namespace

MerkleTree::MerkleTree(std::size_t leaf_count, DeferInterior) : leaf_count_(leaf_count) {
  cap_ = next_pow2(std::max<std::size_t>(leaf_count, 1));
  depth_ = 0;
  for (std::size_t c = cap_; c > 1; c >>= 1) ++depth_;
  nodes_.assign(2 * cap_, Digest::zero());
  if (leaf_count_ == 0) nodes_[1] = empty_tree_root();
}

MerkleTree::MerkleTree(std::size_t leaf_count) : MerkleTree(leaf_count, DeferInterior{}) {
  // Interior nodes over all-zero leaves still need consistent hashes.
  build_interior(nullptr);
}

MerkleTree::MerkleTree(std::span<const Digest> leaves, common::ThreadPool* pool)
    : MerkleTree(leaves.size(), DeferInterior{}) {
  for (std::size_t i = 0; i < leaves.size(); ++i) nodes_[node_index(i)] = leaves[i];
  build_interior(pool);
}

void MerkleTree::build_interior(common::ThreadPool* pool) {
  // Below this width a level's hash work is too small to amortize fan-out.
  constexpr std::size_t kParallelLevelWidth = 512;
  for (std::size_t width = cap_ / 2; width >= 1; width >>= 1) {
    // Level nodes are [width, 2*width); children live one level down.
    if (pool != nullptr && pool->parallel() && width >= kParallelLevelWidth) {
      const std::size_t chunks = std::min(width, pool->concurrency() * 4);
      const std::size_t per_chunk = (width + chunks - 1) / chunks;
      pool->parallel_for(chunks, [this, width, per_chunk](std::size_t c) {
        const std::size_t begin = width + c * per_chunk;
        const std::size_t end = std::min(begin + per_chunk, 2 * width);
        for (std::size_t k = begin; k < end; ++k) {
          nodes_[k] = crypto::sha256_pair(nodes_[2 * k], nodes_[2 * k + 1]);
        }
      });
    } else {
      for (std::size_t k = width; k < 2 * width; ++k) {
        nodes_[k] = crypto::sha256_pair(nodes_[2 * k], nodes_[2 * k + 1]);
      }
    }
  }
}

const Digest& MerkleTree::leaf(std::size_t i) const {
  if (i >= leaf_count_) throw std::out_of_range("MerkleTree::leaf");
  return nodes_[cap_ + i];
}

Digest MerkleTree::root() const { return nodes_[1]; }

std::size_t MerkleTree::set_leaf(std::size_t i, const Digest& d) {
  if (i >= leaf_count_) throw std::out_of_range("MerkleTree::set_leaf");
  std::size_t k = node_index(i);
  nodes_[k] = d;
  std::size_t rehashed = 0;
  for (k >>= 1; k >= 1; k >>= 1) {
    nodes_[k] = crypto::sha256_pair(nodes_[2 * k], nodes_[2 * k + 1]);
    ++rehashed;
  }
  return rehashed;
}

Digest MerkleTree::root_after(
    std::span<const std::pair<std::size_t, Digest>> updates) const {
  // Overlay: node index -> hypothetical digest. Seed with the updated
  // leaves, then fold upward level by level; untouched nodes read through
  // to the real tree.
  std::unordered_map<std::size_t, Digest> overlay;
  overlay.reserve(updates.size() * (depth_ + 1));
  std::vector<std::size_t> frontier;
  frontier.reserve(updates.size());
  for (const auto& [leaf_idx, digest] : updates) {
    if (leaf_idx >= leaf_count_) throw std::out_of_range("MerkleTree::root_after");
    const std::size_t k = node_index(leaf_idx);
    if (overlay.emplace(k, digest).second) {
      frontier.push_back(k);
    } else {
      overlay[k] = digest;  // later update to same leaf wins
    }
  }

  auto read = [&](std::size_t k) -> const Digest& {
    const auto it = overlay.find(k);
    return it != overlay.end() ? it->second : nodes_[k];
  };

  while (!(frontier.size() == 1 && frontier[0] == 1)) {
    std::vector<std::size_t> parents;
    parents.reserve(frontier.size());
    for (const std::size_t k : frontier) {
      const std::size_t parent = k >> 1;
      if (parent == 0) continue;
      if (overlay.count(parent)) continue;  // already scheduled this round
      overlay[parent] = crypto::sha256_pair(read(2 * parent), read(2 * parent + 1));
      parents.push_back(parent);
    }
    if (parents.empty()) break;
    frontier = std::move(parents);
  }
  return read(1);
}

std::vector<Digest> MerkleTree::sibling_path(std::size_t i) const {
  if (i >= leaf_count_) throw std::out_of_range("MerkleTree::sibling_path");
  std::vector<Digest> path;
  path.reserve(depth_);
  for (std::size_t k = node_index(i); k > 1; k >>= 1) {
    path.push_back(nodes_[k ^ 1]);
  }
  return path;
}

}  // namespace fides::merkle

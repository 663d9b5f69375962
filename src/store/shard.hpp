// A data shard: the datastore component of one Fides server (§3.1, Fig 3).
//
// The shard owns a fixed universe of items (established at provisioning, as
// in the paper's evaluation where each server stores a shard of N items),
// tracks per-item values and rts/wts timestamps, and mirrors the item set in
// a Merkle hash tree whose root is what TFCommit signs into blocks.
//
// Single- vs multi-versioned mode (§4.2.1) is a per-shard choice; in
// multi-versioned mode every committed write also appends to the item's
// version chain so the auditor can authenticate any historical version.
#pragma once

#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "merkle/merkle_tree.hpp"
#include "merkle/proof.hpp"
#include "store/item.hpp"
#include "store/versioned_store.hpp"

namespace fides::store {

enum class VersioningMode : std::uint8_t {
  kSingle,
  kMulti,
};

class Shard {
 public:
  /// `item_ids` is the shard's fixed item universe; every item starts with
  /// `initial_value` and zero timestamps. `pool`, when given, parallelizes
  /// the initial Merkle build and later full-tree rebuilds (audits,
  /// recovery); the shard does not own it and it must outlive the shard.
  Shard(ShardId id, std::vector<ItemId> item_ids, Bytes initial_value,
        VersioningMode mode, common::ThreadPool* pool = nullptr);

  ShardId id() const { return id_; }
  VersioningMode mode() const { return mode_; }
  std::size_t item_count() const { return order_.size(); }
  const std::vector<ItemId>& item_ids() const { return order_; }

  bool contains(ItemId item) const { return index_.count(item) != 0; }

  /// Execution-layer read: current value + timestamps (§4.2.1).
  ReadResult read(ItemId item) const;

  /// Item state by reference (used by validation/audit).
  const ItemRecord& peek(ItemId item) const;

  /// Applies one committed write: installs the value, sets wts, and (in
  /// multi-versioned mode) appends a version. Updates the Merkle leaf.
  void apply_write(ItemId item, BytesView value, const Timestamp& commit_ts);

  /// Bumps the read timestamp of an item to the committing reader's ts.
  void update_read_ts(ItemId item, const Timestamp& commit_ts);

  // --- Merkle integration -------------------------------------------------

  /// Leaf index of an item within this shard's tree (item-id order).
  std::size_t leaf_index(ItemId item) const;

  crypto::Digest merkle_root() const { return tree_.root(); }

  /// Root that would result from applying `writes` (id -> new value) in
  /// order, without mutating anything — the vote-phase computation of
  /// TFCommit (§4.3.1). A later write to an item wins, so the root after a
  /// chain of blocks (speculative voting: in-flight blocks, then the round
  /// being voted on) is root_after over their concatenated writes.
  crypto::Digest root_after(
      std::span<const std::pair<ItemId, Bytes>> writes) const;

  /// Rebuilds the Merkle tree of the shard as of version `ts` and returns
  /// it (multi-versioned audits, Lemma 2). Expensive: O(n) hashing, once
  /// per (block, server) an exhaustive audit checks, not once per item.
  merkle::MerkleTree tree_at_version(const Timestamp& ts) const;

  /// Value visible at version `ts` (multi-versioned mode only).
  std::optional<Bytes> value_at_version(ItemId item, const Timestamp& ts) const;

  /// Reads by leaf index (leaf_index()), for a caller that resolves an item
  /// once and then reads its record or historical value (peek(),
  /// value_at_version()) and its Verification Object: merkle::make_vo over
  /// tree() for the current state, over tree_at_version() for a past one.
  const ItemRecord& record_at(std::size_t leaf) const { return records_.at(leaf); }
  std::optional<Bytes> value_at(std::size_t leaf, const Timestamp& ts) const;
  const merkle::MerkleTree& tree() const { return tree_; }

  /// Recovery (§4.2.1): "if a failure occurs, the data can be reset to the
  /// last sanitized version and the application can resume from there."
  /// Multi-versioned mode only. Rolls every item back to its version at
  /// `ts`, discards later versions, resets rts/wts to that version, and
  /// rebuilds the Merkle tree. Returns the number of versions discarded.
  std::size_t reset_to_version(const Timestamp& ts);

  // --- Fault injection (malicious servers only) ---------------------------

  /// Silently replaces the stored value *without* updating the Merkle leaf
  /// or version chain — models datastore corruption (§5 Scenario 3).
  void corrupt_value(ItemId item, Bytes bogus_value);

  /// Corrupts the historical version visible at `ts` in the version chain.
  bool corrupt_version(ItemId item, const Timestamp& ts, Bytes bogus_value);

 private:
  ItemRecord& record(ItemId item);

  ShardId id_;
  VersioningMode mode_;
  std::vector<ItemId> order_;                      // sorted item ids == leaf order
  std::unordered_map<ItemId, std::size_t> index_;  // item id -> leaf index
  std::vector<ItemRecord> records_;                // parallel to order_
  std::vector<VersionChain> chains_;               // parallel; empty in single mode
  merkle::MerkleTree tree_;
  common::ThreadPool* pool_{nullptr};              // not owned; may be null
};

/// A speculative view of a shard: the base state plus the staged effects of
/// in-flight blocks that have not been applied yet. This is what a TFCommit
/// cohort validates against when it votes on block k while block k-1's
/// decision is still on the wire (speculative pipelining): reads fall
/// through to the real shard unless an overlay entry shadows them. Blocks
/// are staged through txn::apply_committed, the same rule that applies them
/// to the shard, so the overlay offers the shard's contains()/peek()/
/// apply_write()/update_read_ts() surface. It holds item records only; the
/// predicted Merkle root comes from Shard::root_after. The shard itself is
/// never mutated — if the speculation proves wrong, the view is simply
/// discarded and the vote recomputed.
class ShardOverlay {
 public:
  explicit ShardOverlay(const Shard& base) : base_(&base) {}

  bool contains(ItemId item) const { return base_->contains(item); }

  /// Item state as it would be after the staged blocks applied.
  const ItemRecord& peek(ItemId item) const {
    const auto it = overlay_.find(item);
    return it != overlay_.end() ? it->second : base_->peek(item);
  }

  /// Shard::apply_write on the overlay: installs the value and sets wts.
  void apply_write(ItemId item, BytesView value, const Timestamp& commit_ts);

  /// Shard::update_read_ts on the overlay: rts only grows.
  void update_read_ts(ItemId item, const Timestamp& commit_ts);

 private:
  ItemRecord& entry(ItemId item);

  const Shard* base_;
  std::unordered_map<ItemId, ItemRecord> overlay_;
};

/// Deterministic placement: item -> shard, round-robin by id. All clients and
/// servers share this function (the "lookup and directory service" of §4.1).
ShardId shard_for_item(ItemId item, std::uint32_t num_shards);

/// The item universe assigned to one shard given `items_per_shard` and the
/// round-robin placement above.
std::vector<ItemId> items_for_shard(ShardId shard, std::uint32_t num_shards,
                                    std::uint32_t items_per_shard);

}  // namespace fides::store

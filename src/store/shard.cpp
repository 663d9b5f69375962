#include "store/shard.hpp"

#include <algorithm>
#include <stdexcept>

namespace fides::store {

Shard::Shard(ShardId id, std::vector<ItemId> item_ids, Bytes initial_value,
             VersioningMode mode, common::ThreadPool* pool)
    : id_(id), mode_(mode), order_(std::move(item_ids)), tree_(1), pool_(pool) {
  std::sort(order_.begin(), order_.end());
  order_.erase(std::unique(order_.begin(), order_.end()), order_.end());

  index_.reserve(order_.size());
  records_.reserve(order_.size());
  std::vector<crypto::Digest> leaves;
  leaves.reserve(order_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    index_.emplace(order_[i], i);
    records_.push_back(ItemRecord{initial_value, kTimestampZero, kTimestampZero});
    leaves.push_back(item_leaf_digest(order_[i], initial_value));
    if (mode_ == VersioningMode::kMulti) chains_.emplace_back(initial_value);
  }
  tree_ = merkle::MerkleTree(leaves, pool_);
}

ItemRecord& Shard::record(ItemId item) { return records_[leaf_index(item)]; }

const ItemRecord& Shard::peek(ItemId item) const { return records_[leaf_index(item)]; }

ReadResult Shard::read(ItemId item) const {
  const ItemRecord& rec = peek(item);
  return ReadResult{item, rec.value, rec.rts, rec.wts};
}

void Shard::apply_write(ItemId item, BytesView value, const Timestamp& commit_ts) {
  const std::size_t idx = leaf_index(item);
  ItemRecord& rec = records_[idx];
  rec.value.assign(value.begin(), value.end());
  rec.wts = commit_ts;
  if (mode_ == VersioningMode::kMulti) {
    chains_[idx].append(commit_ts, rec.value);
  }
  tree_.set_leaf(idx, item_leaf_digest(item, value));
}

void Shard::update_read_ts(ItemId item, const Timestamp& commit_ts) {
  ItemRecord& rec = record(item);
  rec.rts = std::max(rec.rts, commit_ts);
}

std::size_t Shard::leaf_index(ItemId item) const {
  const auto it = index_.find(item);
  if (it == index_.end()) throw std::out_of_range("Shard: unknown item");
  return it->second;
}

crypto::Digest Shard::root_after(
    std::span<const std::pair<ItemId, Bytes>> writes) const {
  std::vector<std::pair<std::size_t, crypto::Digest>> updates;
  updates.reserve(writes.size());
  for (const auto& [item, value] : writes) {
    updates.emplace_back(leaf_index(item), item_leaf_digest(item, value));
  }
  return tree_.root_after(updates);
}

merkle::MerkleTree Shard::tree_at_version(const Timestamp& ts) const {
  if (mode_ != VersioningMode::kMulti) {
    throw std::logic_error("Shard::tree_at_version requires multi-versioned mode");
  }
  std::vector<crypto::Digest> leaves;
  leaves.reserve(order_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto v = chains_[i].at(ts);
    // Every chain has a version at timestamp zero, so `v` is always set.
    leaves.push_back(item_leaf_digest(order_[i], v->value));
  }
  return merkle::MerkleTree(leaves, pool_);
}

std::optional<Bytes> Shard::value_at_version(ItemId item, const Timestamp& ts) const {
  if (mode_ != VersioningMode::kMulti) return std::nullopt;
  return value_at(leaf_index(item), ts);
}

std::optional<Bytes> Shard::value_at(std::size_t leaf, const Timestamp& ts) const {
  if (mode_ != VersioningMode::kMulti) return std::nullopt;
  const auto v = chains_.at(leaf).at(ts);
  if (!v) return std::nullopt;
  return v->value;
}

std::size_t Shard::reset_to_version(const Timestamp& ts) {
  if (mode_ != VersioningMode::kMulti) {
    throw std::logic_error("Shard::reset_to_version requires multi-versioned mode");
  }
  std::size_t dropped = 0;
  std::vector<crypto::Digest> leaves;
  leaves.reserve(order_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    dropped += chains_[i].truncate_after(ts);
    const store::ItemVersion& latest = chains_[i].latest();
    records_[i].value = latest.value;
    records_[i].wts = latest.wts;
    // Read timestamps are not versioned; resetting to the write timestamp is
    // the conservative choice that keeps future OCC validation sound (any
    // reader after recovery bumps it again).
    records_[i].rts = latest.wts;
    leaves.push_back(item_leaf_digest(order_[i], latest.value));
  }
  tree_ = merkle::MerkleTree(leaves, pool_);
  return dropped;
}

void Shard::corrupt_value(ItemId item, Bytes bogus_value) {
  // A malicious server rewrites the value behind the Merkle tree's back;
  // the stale tree is exactly what makes the corruption auditable.
  record(item).value = std::move(bogus_value);
}

bool Shard::corrupt_version(ItemId item, const Timestamp& ts, Bytes bogus_value) {
  if (mode_ != VersioningMode::kMulti) return false;
  return chains_[leaf_index(item)].corrupt_version_at(ts, std::move(bogus_value));
}

ItemRecord& ShardOverlay::entry(ItemId item) {
  const auto it = overlay_.find(item);
  if (it != overlay_.end()) return it->second;
  return overlay_.emplace(item, base_->peek(item)).first->second;
}

void ShardOverlay::apply_write(ItemId item, BytesView value, const Timestamp& commit_ts) {
  ItemRecord& rec = entry(item);
  rec.value.assign(value.begin(), value.end());
  rec.wts = commit_ts;
}

void ShardOverlay::update_read_ts(ItemId item, const Timestamp& commit_ts) {
  ItemRecord& rec = entry(item);
  rec.rts = std::max(rec.rts, commit_ts);
}

ShardId shard_for_item(ItemId item, std::uint32_t num_shards) {
  return ShardId{static_cast<std::uint32_t>(item % num_shards)};
}

std::vector<ItemId> items_for_shard(ShardId shard, std::uint32_t num_shards,
                                    std::uint32_t items_per_shard) {
  std::vector<ItemId> out;
  out.reserve(items_per_shard);
  for (std::uint32_t i = 0; i < items_per_shard; ++i) {
    out.push_back(static_cast<ItemId>(i) * num_shards + shard.value);
  }
  return out;
}

}  // namespace fides::store

// Timestamp-ordering optimistic concurrency control (§4.3.1).
//
// "Similar to timestamp based optimistic concurrency control, at commit
// time, a server checks if the data accessed in the terminating transaction
// has been updated since they were read. If yes, the server chooses to
// abort." A server votes commit only when the transaction serializes at its
// client-assigned commit timestamp:
//   * every read still sees the current version (no intervening writer) and
//     the commit timestamp exceeds the version it read;
//   * every write targets items whose current rts and wts both precede the
//     commit timestamp (no RW-, WW-, or WR-conflict per Lemma 3);
//   * the write set names each owned item once.
//
// Its counterpart is the one apply rule, apply_committed(): every committed
// transaction reaches shard state through it — a server applying a decided
// block, a cohort staging in-flight blocks for a speculative vote, and the
// OrdServ reference runner. Both functions are templates over the state
// surface, so the shard and its speculative overlay share one definition.
#pragma once

#include <string>

#include "store/shard.hpp"
#include "txn/transaction.hpp"

namespace fides::txn {

enum class Vote : std::uint8_t {
  kCommit,
  kAbort,
};

struct ValidationResult {
  Vote vote{Vote::kAbort};
  std::string reason;  ///< human-readable abort cause (empty on commit)

  bool ok() const { return vote == Vote::kCommit; }
};

/// Validates the sub-RwSet of `txn` that touches items owned by `state`.
/// Items owned by other shards are ignored (each cohort validates only its
/// own partition). `state` is anything with Shard's contains()/peek()
/// surface — the shard itself, or a store::ShardOverlay carrying the staged
/// effects of in-flight blocks (speculative voting).
template <typename StateT>
ValidationResult validate_occ(const StateT& state, const Transaction& txn) {
  const Timestamp ts = txn.commit_ts;

  for (const auto& r : txn.rw.reads) {
    if (!state.contains(r.id)) continue;
    const store::ItemRecord& cur = state.peek(r.id);
    if (cur.wts != r.wts) {
      return {Vote::kAbort, "read of item " + std::to_string(r.id) +
                                " is stale: item was rewritten after the read"};
    }
    if (!(cur.wts < ts)) {
      return {Vote::kAbort, "RW-conflict: item " + std::to_string(r.id) +
                                " carries a write timestamp >= commit timestamp"};
    }
  }

  const auto& writes = txn.rw.writes;
  for (std::size_t i = 0; i < writes.size(); ++i) {
    const auto& w = writes[i];
    if (!state.contains(w.id)) continue;
    // Only a crafted request repeats an item (RwSetBuilder merges repeats);
    // write sets hold a handful of entries, so scan rather than allocate.
    for (std::size_t j = 0; j < i; ++j) {
      if (writes[j].id == w.id) {
        return {Vote::kAbort, "write set names item " + std::to_string(w.id) + " twice"};
      }
    }
    const store::ItemRecord& cur = state.peek(w.id);
    if (!(cur.wts < ts)) {
      return {Vote::kAbort, "WW-conflict: item " + std::to_string(w.id) +
                                " was written at or after commit timestamp"};
    }
    if (!(cur.rts < ts)) {
      return {Vote::kAbort, "WR-conflict: item " + std::to_string(w.id) +
                                " was read at or after commit timestamp"};
    }
    // The write entry records the item state observed at access; a write
    // over a version the client never saw (non-blind case) is stale.
    if (!w.blind() && cur.wts != w.wts) {
      return {Vote::kAbort, "write of item " + std::to_string(w.id) +
                                " based on a stale read"};
    }
  }

  return {Vote::kCommit, {}};
}

/// The one apply rule (§4.1 step 7, "Update datastore"): installs the
/// committed transaction's writes on `state` and advances rts to the commit
/// timestamp on every item it touched (rts only grows, so the order of the
/// two does not matter). Items owned by other shards are skipped. `state` is
/// anything with Shard's contains()/apply_write()/update_read_ts() surface —
/// the shard itself (a decided block), or a store::ShardOverlay (a cohort
/// staging the in-flight blocks its speculative vote stacks on).
template <typename StateT>
void apply_committed(StateT& state, const Transaction& txn) {
  const Timestamp ts = txn.commit_ts;
  for (const auto& w : txn.rw.writes) {
    if (!state.contains(w.id)) continue;
    state.apply_write(w.id, w.new_value, ts);
    state.update_read_ts(w.id, ts);
  }
  for (const auto& r : txn.rw.reads) {
    if (state.contains(r.id)) state.update_read_ts(r.id, ts);
  }
}

}  // namespace fides::txn

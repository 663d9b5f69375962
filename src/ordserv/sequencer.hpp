// OrdServ — the block ordering service (§4.6, Figure 9).
//
// Group coordinators publish blocks *without* hash pointers; OrdServ
// atomically broadcasts a single stream, assigning global heights and
// chaining the blocks ("the coordinators of the groups do not fill in the
// hash of the previous block, rather it is filled by the OrdServ").
//
// Ordering contract: submission order is preserved between dependent blocks
// (groups with overlapping servers, or blocks touching common items);
// independent blocks may be ordered arbitrarily — we keep FIFO, which
// trivially satisfies both cases, and expose the dependency metadata so
// tests can verify the contract (the ParBlock-style dependency tracking the
// paper plans to integrate).
//
// OrdServ also hands out per-block epochs (EpochCounter below): group
// coordinators publishing through one sequencer draw their CoSi round ids
// from its counter, giving unique nonce domains across concurrent groups.
// A Cluster embeds its own EpochCounter for the round engine's wire tags —
// a separate domain; engine epochs only need uniqueness within that
// cluster's transport. Epoch reservation and stream submission are
// thread-safe — multiple group coordinators may race.
//
// The paper suggests PBFT among coordinators or Apache Kafka as concrete
// OrdServ instances; this in-process sequencer implements the same abstract
// contract — a single consistently ordered, dependency-respecting stream —
// which is all §4.6 requires of it.
#pragma once

#include <atomic>
#include <deque>
#include <optional>
#include <unordered_map>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "ledger/block.hpp"
#include "ordserv/group.hpp"

namespace fides::ordserv {

/// Thread-safe monotone epoch source. reserve() hands out 1, 2, 3, ... —
/// each caller gets a distinct epoch, with no gaps, under any interleaving.
class EpochCounter {
 public:
  std::uint64_t reserve() { return next_.fetch_add(1, std::memory_order_relaxed) + 1; }

  /// Epochs handed out so far.
  std::uint64_t issued() const { return next_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> next_{0};
};

struct SequencedBlock {
  ledger::Block block;       ///< height/prev_hash filled by the sequencer
  ServerGroup group;         ///< who terminated it
  std::vector<std::uint64_t> depends_on;  ///< heights of dependency blocks

  /// Wire form of a sequenced entry (the group engine's gtf_seq body).
  Bytes serialize() const;
  /// nullopt on malformed bytes — including counts the body cannot hold.
  static std::optional<SequencedBlock> deserialize(BytesView bytes);
};

class Sequencer {
 public:
  /// Accepts a block published by a group coordinator. `block.height` and
  /// `block.prev_hash` are overwritten; the co-sign must already cover the
  /// transactions (the signed bytes bind txns + roots + decision + signers;
  /// see note below). Returns the assigned global height. Thread-safe:
  /// concurrent submissions serialize into one consistent chain.
  std::uint64_t submit(ledger::Block block, ServerGroup group) EXCLUDES(mutex_);

  /// The per-block epoch source (see EpochCounter).
  EpochCounter& epochs() { return epochs_; }

  /// Blocks sequenced so far, in broadcast order. ONLY safe once submitters
  /// are quiescent (the harness's post-run inspection) — it hands out an
  /// unguarded reference into the guarded stream, which the analysis cannot
  /// express; concurrent readers must use at() / size() instead.
  const std::deque<SequencedBlock>& stream() const NO_THREAD_SAFETY_ANALYSIS {
    return stream_;
  }

  /// The sequenced entry at `height`. Thread-safe against concurrent
  /// submit: the deque never reallocates elements on push_back, so the
  /// returned reference stays valid and immutable (entries are never
  /// mutated after sequencing). Throws std::out_of_range beyond the head.
  const SequencedBlock& at(std::uint64_t height) const EXCLUDES(mutex_);

  std::size_t size() const EXCLUDES(mutex_);

 private:
  mutable common::Mutex mutex_;
  EpochCounter epochs_;  // confined(shared-atomics): one monotone atomic
  std::deque<SequencedBlock> stream_ GUARDED_BY(mutex_);
  crypto::Digest head_hash_ GUARDED_BY(mutex_){};  // zero for genesis
  std::unordered_map<ItemId, std::uint64_t> last_touch_
      GUARDED_BY(mutex_);  // item -> height
};

}  // namespace fides::ordserv

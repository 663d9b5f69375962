#include "ordserv/sequencer.hpp"

#include "common/serde.hpp"

namespace fides::ordserv {

Bytes SequencedBlock::serialize() const {
  Writer w;
  w.bytes(block.serialize());
  w.u32(static_cast<std::uint32_t>(group.members.size()));
  for (const ServerId s : group.members) w.u32(s.value);
  w.u32(group.coordinator.value);
  w.u32(static_cast<std::uint32_t>(depends_on.size()));
  for (const std::uint64_t d : depends_on) w.u64(d);
  return std::move(w).take();
}

std::optional<SequencedBlock> SequencedBlock::deserialize(BytesView bytes) {
  try {
    Reader r(bytes);
    const Bytes block_bytes = r.bytes();
    auto block = ledger::Block::deserialize(block_bytes);
    if (!block.has_value()) return std::nullopt;
    SequencedBlock e;
    e.block = std::move(*block);
    // Counts come off the wire: bound them by the bytes left before sizing
    // anything (4 bytes per member, 8 per dependency).
    const std::uint32_t nm = r.u32();
    if (nm > r.remaining() / 4) return std::nullopt;
    e.group.members.reserve(nm);
    for (std::uint32_t i = 0; i < nm; ++i) e.group.members.push_back(ServerId{r.u32()});
    e.group.coordinator = ServerId{r.u32()};
    const std::uint32_t nd = r.u32();
    if (nd > r.remaining() / 8) return std::nullopt;
    e.depends_on.reserve(nd);
    for (std::uint32_t i = 0; i < nd; ++i) e.depends_on.push_back(r.u64());
    r.expect_done();
    return e;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

std::uint64_t Sequencer::submit(ledger::Block block, ServerGroup group) {
  common::MutexLock lock(mutex_);
  SequencedBlock entry;
  entry.group = std::move(group);

  // Dependencies: earlier stream entries touching any common item. FIFO
  // sequencing preserves their order by construction; the metadata lets
  // consumers and tests verify the §4.6 contract explicitly.
  for (const auto& t : block.txns) {
    for (const ItemId item : t.rw.touched_items()) {
      const auto it = last_touch_.find(item);
      if (it != last_touch_.end()) entry.depends_on.push_back(it->second);
    }
  }
  std::sort(entry.depends_on.begin(), entry.depends_on.end());
  entry.depends_on.erase(
      std::unique(entry.depends_on.begin(), entry.depends_on.end()),
      entry.depends_on.end());

  const std::uint64_t height = stream_.size();
  // OrdServ owns the chaining: global height + hash pointer over the
  // previous *sequenced* entry. The group's co-sign already seals the block
  // contents; the outer chain seals the order.
  block.height = height;
  block.prev_hash = head_hash_;
  head_hash_ = block.digest();

  for (const auto& t : block.txns) {
    for (const ItemId item : t.rw.touched_items()) last_touch_[item] = height;
  }

  entry.block = std::move(block);
  stream_.push_back(std::move(entry));
  return height;
}

const SequencedBlock& Sequencer::at(std::uint64_t height) const {
  common::MutexLock lock(mutex_);
  // Element addresses in a deque are stable across push_back and entries are
  // immutable once sequenced, so the reference outlives the lock safely.
  return stream_.at(height);
}

std::size_t Sequencer::size() const {
  common::MutexLock lock(mutex_);
  return stream_.size();
}

}  // namespace fides::ordserv

#include "ledger/chain_validation.hpp"

#include <algorithm>

namespace fides::ledger {

namespace {

/// The co-sign covers the block's declared signer set; resolve its
/// aggregate key from the full membership. An empty set, one naming a server
/// twice, or one naming an unknown server cannot validate. `record` renders
/// the signed bytes, and runs only once the signer set checks out.
template <typename Record>
CosignVerdict verify_cosign_over(const Block& b, const crypto::KeyRegistry& keys,
                                 Record record) {
  if (!b.cosign) return CosignVerdict::kMissing;
  const crypto::KeyTable* aggregate = keys.aggregate(b.signers);
  if (aggregate == nullptr) return CosignVerdict::kBadSignerSet;
  return crypto::cosi_verify(record(b), *b.cosign, *aggregate) ? CosignVerdict::kOk
                                                               : CosignVerdict::kBadSignature;
}

}  // namespace

CosignVerdict verify_block_cosign(const Block& block, const crypto::KeyRegistry& keys) {
  return verify_cosign_over(block, keys,
                            [](const Block& b) { return b.signing_bytes(); });
}

CosignVerdict verify_unchained_cosign(const Block& block, const crypto::KeyRegistry& keys) {
  return verify_cosign_over(block, keys,
                            [](const Block& b) { return unchained_signing_bytes(b); });
}

ChainMemo::Entry& ChainMemo::entry(std::size_t position, const Block& block) {
  if (position >= by_position_.size()) by_position_.resize(position + 1);
  std::vector<Entry>& seen = by_position_[position];
  for (Entry& e : seen) {
    if (*e.block == block) return e;
  }
  seen.push_back(Entry{&block, block.digest(), std::nullopt});
  return seen.back();
}

ChainCheckResult validate_chain(std::span<const Block> blocks, const crypto::KeyRegistry& keys,
                                bool require_cosign, ChainMemo* memo) {
  ChainMemo own;
  if (memo == nullptr) memo = &own;
  ChainCheckResult res;
  res.digests.reserve(blocks.size());
  crypto::Digest expected_prev = crypto::Digest::zero();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const Block& b = blocks[i];
    ChainMemo::Entry& e = memo->entry(i, b);
    if (b.height != i) {
      res.issues.push_back({i, "height " + std::to_string(b.height) +
                                   " does not match position " + std::to_string(i)});
    }
    if (!(b.prev_hash == expected_prev)) {
      res.issues.push_back({i, "broken hash pointer: prev_hash does not match "
                               "the digest of the preceding block"});
    }
    if (require_cosign) {
      if (!e.cosign) e.cosign = verify_block_cosign(b, keys);
      switch (*e.cosign) {
        case CosignVerdict::kMissing:
          res.issues.push_back({i, "missing collective signature"});
          break;
        case CosignVerdict::kBadSignerSet:
          res.issues.push_back({i, "block declares an invalid signer set"});
          break;
        case CosignVerdict::kBadSignature:
          res.issues.push_back({i, "collective signature does not verify against "
                                   "the block contents"});
          break;
        case CosignVerdict::kOk:
          break;
      }
    }
    expected_prev = e.digest;
    res.digests.push_back(e.digest);
  }
  res.ok = res.issues.empty();
  return res;
}

LogSelection select_correct_log(std::span<const std::span<const Block>> logs,
                                const crypto::KeyRegistry& keys) {
  LogSelection sel;
  ChainMemo memo;
  sel.checks.reserve(logs.size());
  for (std::size_t i = 0; i < logs.size(); ++i) {
    sel.checks.push_back(
        validate_chain(logs[i], keys, /*require_cosign=*/true, &memo));
    if (!sel.checks[i].ok) sel.invalid.push_back(i);
  }

  // Among valid logs, the longest is complete (>= the correct server's log,
  // and validity rules out fabricated extensions).
  std::size_t best_len = 0;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    if (sel.checks[i].ok && logs[i].size() >= best_len) {
      if (!sel.chosen || logs[i].size() > best_len) sel.chosen = i;
      best_len = std::max(best_len, logs[i].size());
    }
  }

  if (sel.chosen) {
    for (std::size_t i = 0; i < logs.size(); ++i) {
      if (sel.checks[i].ok && logs[i].size() < best_len) sel.incomplete.push_back(i);
    }
  }
  return sel;
}

}  // namespace fides::ledger

// Log checkpointing (§3.3: "optimizations such as checkpointing can be used
// to minimize the log storage space at each server").
//
// A checkpoint summarizes the log prefix [0, height): the digest of its last
// block and the latest Merkle root of every shard at that point. Once all
// servers collectively sign a checkpoint, the prefix can be archived and
// both audits and chain validation can start from the checkpoint instead of
// genesis — the co-sign plays the role the genesis zero-hash played.
#pragma once

#include <optional>

#include "ledger/chain_validation.hpp"
#include "ledger/log.hpp"

namespace fides::ledger {

struct Checkpoint {
  std::uint64_t height{0};     ///< blocks [0, height) are summarized
  crypto::Digest head_hash;    ///< digest of block height-1 (zero if height 0)
  std::vector<ShardRoot> roots;  ///< latest root per server as of the prefix
  std::vector<ServerId> signers;
  std::optional<crypto::CosiSignature> cosign;

  /// Canonical bytes without the co-sign (the CoSi record).
  Bytes signing_bytes() const;
  Bytes serialize() const;
  static std::optional<Checkpoint> deserialize(BytesView b);

  friend bool operator==(const Checkpoint&, const Checkpoint&) = default;
};

/// CoSi round id under which a checkpoint at `height` is co-signed. Nonces
/// derive from (key, record, round), so the direct and simulated drivers
/// must share this definition for their signature bytes to stay
/// bit-identical.
constexpr std::uint64_t checkpoint_cosi_round(std::uint64_t height) {
  return 0xC0DE0000ULL + height;
}

/// Builds the (unsigned) checkpoint summarizing `log` as of its full length:
/// head hash plus each server's most recent committed root.
Checkpoint make_checkpoint(std::span<const Block> log,
                           std::vector<ServerId> signers);

/// Verifies the checkpoint's collective signature under the aggregate key of
/// its signer set, drawn from `keys` (the full membership). A signer set that
/// is empty, names a server twice or names an unknown server fails.
bool validate_checkpoint(const Checkpoint& cp, const crypto::KeyRegistry& keys);

/// Validates the suffix of a log against a trusted checkpoint: the block at
/// cp.height must chain from cp.head_hash and every suffix block must carry
/// a valid co-sign. `blocks` is the full log; blocks before cp.height are
/// not inspected (they may have been archived away — pass what remains).
ChainCheckResult validate_chain_from(const Checkpoint& cp, std::span<const Block> blocks,
                                     const crypto::KeyRegistry& keys);

}  // namespace fides::ledger

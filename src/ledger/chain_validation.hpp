// Chain validation and correct-log selection (§3.3 step ii, Lemmas 6 & 7).
//
// During an audit the auditor gathers logs from all servers, validates each
// (co-sign per block + hash-pointer chain), discards invalid logs, and —
// because at least one server is correct — adopts the longest valid log as
// the correct *and complete* history. Valid-but-shorter logs expose servers
// that omitted the tail (Lemma 7); invalid logs expose tampering or
// reordering (Lemma 6).
//
// Honest servers hold identical copies of every block, so the selection step
// hashes and co-sign-verifies each *distinct* block once (ChainMemo) and
// compares the other copies memberwise against it.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/key_registry.hpp"
#include "ledger/block.hpp"

namespace fides::ledger {

/// Outcome of checking one block's collective signature.
enum class CosignVerdict : std::uint8_t {
  kMissing,        ///< the block carries no co-sign
  kBadSignerSet,   ///< empty signer set, one naming a server twice or an
                   ///< unknown server, or one whose keys sum to infinity
  kBadSignature,   ///< the co-sign does not verify under the signers' keys
  kOk,
};

/// Resolves the block's declared signer set to its aggregate key in `keys`
/// (the full membership) and verifies its co-sign over signing_bytes().
CosignVerdict verify_block_cosign(const Block& block, const crypto::KeyRegistry& keys);

/// verify_block_cosign over the group-commit signing view
/// (unchained_signing_bytes): the bytes a group signed before OrdServ filled
/// in the chain position.
CosignVerdict verify_unchained_cosign(const Block& block, const crypto::KeyRegistry& keys);

struct ChainIssue {
  std::size_t block_index{0};
  std::string what;
};

struct ChainCheckResult {
  bool ok{true};
  std::vector<ChainIssue> issues;
  /// digest() of every block, in log order.
  std::vector<crypto::Digest> digests;
};

/// Per-audit memo for validate_chain: each distinct block seen at a log
/// position, with its digest and co-sign verdict. A block reuses an entry
/// only when it compares equal to the cached block (Block::operator==, every
/// field including the co-sign); any other block is hashed and verified on
/// its own. Entries never cross positions. The memo points into the
/// validated logs, which must outlive it, and is valid for one membership.
class ChainMemo {
 public:
  struct Entry {
    const Block* block;
    crypto::Digest digest;
    std::optional<CosignVerdict> cosign;  ///< computed on first request
  };

  /// The entry for `block` at log position `position`, created on first sight.
  Entry& entry(std::size_t position, const Block& block);

 private:
  std::vector<std::vector<Entry>> by_position_;
};

/// Validates a log: consecutive heights, prev_hash links, and (when
/// `require_cosign`) a valid collective signature on every block under the
/// full server membership. 2PC logs are validated with require_cosign=false.
/// With a `memo`, blocks already seen at the same position are not
/// re-hashed or re-verified.
ChainCheckResult validate_chain(std::span<const Block> blocks, const crypto::KeyRegistry& keys,
                                bool require_cosign, ChainMemo* memo = nullptr);

struct LogSelection {
  /// Index (into the input) of the adopted correct & complete log.
  std::optional<std::size_t> chosen;
  /// Logs failing validate_chain — tampered or reordered (Lemma 6).
  std::vector<std::size_t> invalid;
  /// Valid logs strictly shorter than the chosen one — truncated (Lemma 7).
  std::vector<std::size_t> incomplete;
  /// validate_chain's result for every log, in input order: attribution and
  /// the cross-log checks read these instead of validating again.
  std::vector<ChainCheckResult> checks;
};

/// Implements the auditor's log-selection step. `logs[i]` is the log
/// collected from server i. One ChainMemo spans all logs.
LogSelection select_correct_log(std::span<const std::span<const Block>> logs,
                                const crypto::KeyRegistry& keys);

}  // namespace fides::ledger

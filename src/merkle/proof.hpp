// Verification Objects (§2.3) — Merkle membership proofs.
//
// A VO for data item `a` is the sibling digests along the path from h(a) to
// the root. The auditor recomputes the root from the claimed value and the
// VO and compares it with the root stored (collectively signed) in the log;
// a mismatch proves datastore corruption at that server/version (Lemma 2).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/serde.hpp"
#include "merkle/merkle_tree.hpp"

namespace fides::merkle {

struct VerificationObject {
  std::uint64_t leaf_index{0};
  std::vector<Digest> siblings;  ///< bottom-up sibling digests

  friend bool operator==(const VerificationObject&, const VerificationObject&) = default;

  Bytes serialize() const;
  static std::optional<VerificationObject> deserialize(BytesView b);
};

/// Produces the VO for leaf i of `tree`.
VerificationObject make_vo(const MerkleTree& tree, std::size_t i);

/// Folds `leaf_digest` up through vo.siblings and returns the implied root.
Digest fold_vo(const Digest& leaf_digest, const VerificationObject& vo);

/// True iff `leaf_digest` at vo.leaf_index hashes up to `expected_root`.
/// The reference one-VO check that verify_vos is tested against.
bool verify_vo(const Digest& leaf_digest, const VerificationObject& vo,
               const Digest& expected_root);

/// Batched verify_vo against one root: verdict i is exactly
/// verify_vo(leaf_digests[i], *vos[i], expected_root), for any input —
/// unsorted, duplicate or out-of-range leaf indices, mismatched sibling
/// counts, forged siblings. The VOs fold in leaf-index order and each level
/// keeps the (left, right, out) of the previous fold; a level is hashed only
/// when its pair bytes differ from that entry, so a reused digest is the
/// hash the level would compute. VOs of nearby leaves share their upper
/// pairs, so k VOs into one tree cost about one hash per distinct interior
/// node on their paths instead of k·depth. Memory is O(k + depth).
/// Throws std::invalid_argument unless leaf_digests.size() == vos.size().
std::vector<bool> verify_vos(std::span<const Digest> leaf_digests,
                             std::span<const VerificationObject* const> vos,
                             const Digest& expected_root);

}  // namespace fides::merkle

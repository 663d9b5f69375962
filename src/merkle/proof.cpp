#include "merkle/proof.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace fides::merkle {

Bytes VerificationObject::serialize() const {
  Writer w;
  w.u64(leaf_index);
  w.u32(static_cast<std::uint32_t>(siblings.size()));
  for (const auto& d : siblings) w.raw(d.view());
  return std::move(w).take();
}

std::optional<VerificationObject> VerificationObject::deserialize(BytesView b) {
  try {
    Reader rd(b);
    VerificationObject vo;
    vo.leaf_index = rd.u64();
    const std::uint32_t n = rd.u32();
    if (n > 64) return std::nullopt;  // deeper than any 2^64-leaf tree: bogus
    vo.siblings.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const Bytes raw = rd.raw(32);
      Digest d;
      std::copy(raw.begin(), raw.end(), d.bytes.begin());
      vo.siblings.push_back(d);
    }
    rd.expect_done();
    return vo;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

VerificationObject make_vo(const MerkleTree& tree, std::size_t i) {
  VerificationObject vo;
  vo.leaf_index = i;
  vo.siblings = tree.sibling_path(i);
  return vo;
}

Digest fold_vo(const Digest& leaf_digest, const VerificationObject& vo) {
  Digest acc = leaf_digest;
  std::uint64_t idx = vo.leaf_index;
  for (const auto& sib : vo.siblings) {
    acc = (idx & 1) ? crypto::sha256_pair(sib, acc) : crypto::sha256_pair(acc, sib);
    idx >>= 1;
  }
  return acc;
}

bool verify_vo(const Digest& leaf_digest, const VerificationObject& vo,
               const Digest& expected_root) {
  return fold_vo(leaf_digest, vo) == expected_root;
}

std::vector<bool> verify_vos(std::span<const Digest> leaf_digests,
                             std::span<const VerificationObject* const> vos,
                             const Digest& expected_root) {
  if (leaf_digests.size() != vos.size()) {
    throw std::invalid_argument("verify_vos: one leaf digest per VO");
  }
  // (leaf index, input position): sorted, VOs of one subtree fold together.
  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  order.reserve(vos.size());
  for (std::size_t i = 0; i < vos.size(); ++i) order.emplace_back(vos[i]->leaf_index, i);
  std::sort(order.begin(), order.end());

  struct Pair {
    Digest left, right, out;
  };
  std::vector<Pair> last;  // last[k]: the most recent pair hashed at level k
  std::vector<bool> verdicts(vos.size());
  for (const auto& [leaf_index, i] : order) {
    const VerificationObject& vo = *vos[i];
    Digest acc = leaf_digests[i];
    std::uint64_t idx = leaf_index;
    for (std::size_t k = 0; k < vo.siblings.size(); ++k, idx >>= 1) {
      const Digest& sib = vo.siblings[k];
      const Digest& left = (idx & 1) ? sib : acc;
      const Digest& right = (idx & 1) ? acc : sib;
      if (k == last.size()) {
        last.push_back({left, right, crypto::sha256_pair(left, right)});
      } else if (last[k].left != left || last[k].right != right) {
        last[k] = {left, right, crypto::sha256_pair(left, right)};
      }
      acc = last[k].out;
    }
    verdicts[i] = acc == expected_root;
  }
  return verdicts;
}

}  // namespace fides::merkle

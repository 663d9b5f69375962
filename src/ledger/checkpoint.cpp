#include "ledger/checkpoint.hpp"

namespace fides::ledger {

namespace {

// fides-lint: allow-file(serde-pairing) -- encode_body is a digest/signing
// preimage, one-way by design; checkpoints travel via serialize() below.
void encode_body(const Checkpoint& cp, Writer& w) {
  w.u64(cp.height);
  w.raw(cp.head_hash.view());
  w.u32(static_cast<std::uint32_t>(cp.roots.size()));
  for (const auto& r : cp.roots) {
    w.u32(r.server.value);
    w.raw(r.root.view());
  }
  w.u32(static_cast<std::uint32_t>(cp.signers.size()));
  for (const ServerId s : cp.signers) w.u32(s.value);
}

crypto::Digest read_digest(Reader& r) {
  const Bytes raw = r.raw(32);
  crypto::Digest d;
  std::copy(raw.begin(), raw.end(), d.bytes.begin());
  return d;
}

}  // namespace

Bytes Checkpoint::signing_bytes() const {
  Writer w;
  w.str("fides-checkpoint");  // domain separation from blocks
  encode_body(*this, w);
  return std::move(w).take();
}

Bytes Checkpoint::serialize() const {
  Writer w;
  encode_body(*this, w);
  w.boolean(cosign.has_value());
  if (cosign) w.bytes(cosign->serialize());
  return std::move(w).take();
}

std::optional<Checkpoint> Checkpoint::deserialize(BytesView bytes) {
  try {
    Reader r(bytes);
    Checkpoint cp;
    cp.height = r.u64();
    cp.head_hash = read_digest(r);
    const std::uint32_t nr = r.u32();
    for (std::uint32_t i = 0; i < nr; ++i) {
      ShardRoot sr;
      sr.server = ServerId{r.u32()};
      sr.root = read_digest(r);
      cp.roots.push_back(sr);
    }
    const std::uint32_t ns = r.u32();
    for (std::uint32_t i = 0; i < ns; ++i) cp.signers.push_back(ServerId{r.u32()});
    if (r.boolean()) {
      const auto sig = crypto::CosiSignature::deserialize(r.bytes());
      if (!sig) return std::nullopt;
      cp.cosign = *sig;
    }
    r.expect_done();
    return cp;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

Checkpoint make_checkpoint(std::span<const Block> log,
                           std::vector<ServerId> signers) {
  Checkpoint cp;
  cp.height = log.size();
  cp.head_hash = log.empty() ? crypto::Digest::zero() : log.back().digest();
  cp.signers = std::move(signers);
  // Latest committed root per server, scanning backwards.
  for (const ServerId s : cp.signers) {
    for (auto it = log.rbegin(); it != log.rend(); ++it) {
      if (!it->committed()) continue;
      if (const crypto::Digest* root = it->root_of(s)) {
        cp.roots.push_back(ShardRoot{s, *root});
        break;
      }
    }
  }
  return cp;
}

bool validate_checkpoint(const Checkpoint& cp, const crypto::KeyRegistry& keys) {
  if (!cp.cosign) return false;
  const crypto::KeyTable* aggregate = keys.aggregate(cp.signers);
  return aggregate != nullptr && crypto::cosi_verify(cp.signing_bytes(), *cp.cosign, *aggregate);
}

ChainCheckResult validate_chain_from(const Checkpoint& cp, std::span<const Block> blocks,
                                     const crypto::KeyRegistry& keys) {
  ChainCheckResult res;
  if (!validate_checkpoint(cp, keys)) {
    res.issues.push_back({static_cast<std::size_t>(cp.height),
                          "checkpoint collective signature does not verify"});
    res.ok = false;
    return res;
  }
  if (blocks.size() < cp.height) {
    res.issues.push_back({blocks.size(), "log shorter than the checkpoint height"});
    res.ok = false;
    return res;
  }
  crypto::Digest expected_prev = cp.head_hash;
  for (std::size_t i = cp.height; i < blocks.size(); ++i) {
    const Block& b = blocks[i];
    if (b.height != i) {
      res.issues.push_back({i, "height does not match position"});
    }
    if (!(b.prev_hash == expected_prev)) {
      res.issues.push_back({i, "broken hash pointer after checkpoint"});
    }
    const CosignVerdict cosign = verify_block_cosign(b, keys);
    if (cosign == CosignVerdict::kMissing || b.signers.empty()) {
      res.issues.push_back({i, "missing collective signature"});
    } else if (cosign != CosignVerdict::kOk) {
      res.issues.push_back({i, "collective signature does not verify"});
    }
    expected_prev = b.digest();
  }
  res.ok = res.issues.empty();
  return res;
}

}  // namespace fides::ledger

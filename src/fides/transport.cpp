#include "fides/transport.hpp"

#include <algorithm>

#include "common/serde.hpp"

namespace fides {

std::string to_string(NodeId n) {
  return (n.kind == NodeId::Kind::kServer ? "S" : "C") + std::to_string(n.id);
}

void Transport::register_node(NodeId node, const crypto::PublicKey& key) {
  if (node.kind == NodeId::Kind::kServer) {
    keys_.set_server(ServerId{node.id}, key);
  } else {
    keys_.set_client(ClientId{node.id}, key);
  }
}

const crypto::KeyTable* Transport::key_of(NodeId node) const {
  return node.kind == NodeId::Kind::kServer ? keys_.server(ServerId{node.id})
                                            : keys_.client(ClientId{node.id});
}

Bytes Transport::signing_preimage(const Envelope& env) {
  // Bind sender identity and type tag into the signature so an envelope
  // cannot be replayed as a different message kind or attributed elsewhere.
  Writer w;
  w.u8(static_cast<std::uint8_t>(env.sender.kind));
  w.u32(env.sender.id);
  w.str(env.type);
  w.bytes(env.payload);
  return std::move(w).take();
}

Envelope Transport::wrap(NodeId sender, std::string type, Bytes payload) {
  Envelope env;
  env.sender = sender;
  env.type = std::move(type);
  env.payload = std::move(payload);
  ++stats_.messages;
  stats_.bytes += env.payload.size();
  return env;
}

Envelope Transport::seal(const crypto::KeyPair& sender_key, NodeId sender,
                         std::string type, Bytes payload) {
  Envelope env = wrap(sender, std::move(type), std::move(payload));
  env.signature = sender_key.sign(signing_preimage(env));
  ++stats_.signatures_created;
  return env;
}

void Transport::count_copy(const Envelope& env) {
  ++stats_.messages;
  stats_.bytes += env.payload.size();
}

bool Transport::open(const Envelope& env, std::string_view expected_type) {
  if (env.type != expected_type) {
    ++stats_.rejected;
    return false;
  }
  const crypto::KeyTable* key = key_of(env.sender);
  if (key == nullptr) {
    ++stats_.rejected;
    return false;
  }
  ++stats_.signatures_verified;
  if (!crypto::verify(*key, signing_preimage(env), env.signature)) {
    ++stats_.rejected;
    return false;
  }
  return true;
}

std::vector<unsigned char> Transport::open_batch(std::span<const Envelope* const> envelopes,
                                                 common::ThreadPool* pool) {
  std::vector<unsigned char> ok(envelopes.size(), 1);

  // Envelopes with an unknown sender are rejected outright, exactly as
  // open() would; the rest form the batch_verify input. Preimages must stay
  // alive until the aggregate check has consumed them.
  std::vector<std::size_t> idx;
  std::vector<Bytes> preimages;
  std::vector<crypto::BatchItem> items;
  idx.reserve(envelopes.size());
  preimages.reserve(envelopes.size());
  items.reserve(envelopes.size());
  for (std::size_t i = 0; i < envelopes.size(); ++i) {
    const Envelope& env = *envelopes[i];
    const crypto::KeyTable* key = key_of(env.sender);
    if (key == nullptr) {
      ++stats_.rejected;
      ok[i] = 0;
      continue;
    }
    ++stats_.signatures_verified;
    idx.push_back(i);
    preimages.push_back(signing_preimage(env));
    items.push_back(crypto::BatchItem{&key->key(), BytesView{}, &env.signature});
  }
  for (std::size_t j = 0; j < items.size(); ++j) {
    items[j].message = BytesView(preimages[j].data(), preimages[j].size());
  }

  // Fan sub-batches across the pool: each chunk is one RLC aggregate, so the
  // chunk size trades parallelism against amortization of the shared ladder.
  // Verdicts and Stats are identical regardless of the split.
  constexpr std::size_t kMinChunk = 4;
  std::size_t chunks = 1;
  if (pool != nullptr && pool->parallel() && items.size() >= 2 * kMinChunk) {
    chunks = std::min(pool->concurrency(), items.size() / kMinChunk);
  }
  const std::size_t per = (items.size() + chunks - 1) / std::max<std::size_t>(chunks, 1);
  auto verify_chunk = [&](std::size_t ci) {
    const std::size_t lo = ci * per;
    const std::size_t hi = std::min(lo + per, items.size());
    if (lo >= hi) return;
    const auto verdicts = crypto::batch_verify(
        std::span<const crypto::BatchItem>(items.data() + lo, hi - lo));
    for (std::size_t j = lo; j < hi; ++j) {
      if (verdicts[j - lo] == 0) {
        ++stats_.rejected;
        ok[idx[j]] = 0;
      }
    }
  };
  if (chunks > 1) {
    pool->parallel_for(chunks, verify_chunk);
  } else {
    verify_chunk(0);
  }
  return ok;
}

}  // namespace fides

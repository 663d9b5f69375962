// Signed in-process transport.
//
// "All message exchanges (client-server or server-server) are digitally
// signed by the sender and verified by the receiver" (§3.1). Envelope =
// sender + type tag + canonical payload bytes + Schnorr signature. The
// transport keeps the public-key registry (servers and clients know each
// other's keys) and the traffic statistics the benchmark harness reports.
//
// The registry is a crypto::KeyRegistry: each key's precomputed table is
// built once, at registration, and every open() checks against it.
//
// Delivery is a function call: the cluster passes the envelope to the
// receiving node, which first `open()`s it (signature check) before acting.
// Nothing sleeps: see the timing model in fides/cluster.hpp.
#pragma once

#include <atomic>
#include <span>
#include <string>

#include "common/thread_pool.hpp"
#include "crypto/key_registry.hpp"
#include "fides/config.hpp"

namespace fides {

/// Uniform address space over servers and clients.
struct NodeId {
  enum class Kind : std::uint8_t { kServer = 0, kClient = 1 };
  Kind kind{Kind::kServer};
  std::uint32_t id{0};

  static NodeId server(ServerId s) { return {Kind::kServer, s.value}; }
  static NodeId client(ClientId c) { return {Kind::kClient, c.value}; }

  friend constexpr auto operator<=>(const NodeId&, const NodeId&) = default;
};

std::string to_string(NodeId n);

}  // namespace fides

namespace std {
template <>
struct hash<fides::NodeId> {
  size_t operator()(const fides::NodeId& n) const noexcept {
    // Pack into 64 bits, then splitmix64-finalize. The mix is computed in
    // uint64_t regardless of the platform's size_t width (a size_t shift by
    // 32 would be UB where size_t is 32-bit), and the high kind bits still
    // influence the truncated result on 32-bit targets.
    std::uint64_t x =
        (static_cast<std::uint64_t>(n.kind) << 32) | static_cast<std::uint64_t>(n.id);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};
}  // namespace std

namespace fides {

struct Envelope {
  NodeId sender;
  std::string type;  ///< message type tag, bound into the signature
  Bytes payload;     ///< canonical message bytes
  crypto::Signature signature;
};

class Transport {
 public:
  explicit Transport(bool batch_verify = false) : batch_verify_(batch_verify) {}

  /// Traffic counters. Thread-safe: the round driver seals/opens envelopes
  /// from pool workers concurrently, so every counter is an atomic. Copying
  /// a Stats takes a (non-atomic-across-fields) snapshot — fine for the
  /// reporting paths, which copy only between rounds.
  struct Stats {
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> signatures_created{0};
    std::atomic<std::uint64_t> signatures_verified{0};
    std::atomic<std::uint64_t> rejected{0};

    Stats() = default;
    Stats(const Stats& o) { *this = o; }
    Stats& operator=(const Stats& o) {
      if (this != &o) {
        messages.store(o.messages.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
        bytes.store(o.bytes.load(std::memory_order_relaxed), std::memory_order_relaxed);
        signatures_created.store(o.signatures_created.load(std::memory_order_relaxed),
                                 std::memory_order_relaxed);
        signatures_verified.store(o.signatures_verified.load(std::memory_order_relaxed),
                                  std::memory_order_relaxed);
        rejected.store(o.rejected.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      }
      return *this;
    }

    void reset() { *this = Stats{}; }
  };

  /// Registers (or replaces) a node's key. Setup only; throws
  /// std::invalid_argument for an invalid key.
  void register_node(NodeId node, const crypto::PublicKey& key);

  /// The node's key table, or nullptr for an unregistered node.
  const crypto::KeyTable* key_of(NodeId node) const;

  /// Every registered key, with the cached signer-set aggregates.
  const crypto::KeyRegistry& keys() const { return keys_; }

  /// Wraps and signs a payload. Every seal counts as one message sent.
  Envelope seal(const crypto::KeyPair& sender_key, NodeId sender, std::string type,
                Bytes payload);

  /// Wraps a payload without signing it — a data-path message when
  /// ClusterConfig::sign_data_path is off. Still counts as one message sent.
  Envelope wrap(NodeId sender, std::string type, Bytes payload);

  /// Accounts for one more copy of an already-sealed broadcast envelope:
  /// the sender signs a broadcast once and sends the same envelope to every
  /// recipient, but each copy is still a message on the wire.
  void count_copy(const Envelope& env);

  /// Verifies sender signature against the registry (and that the claimed
  /// type matches). Returns false — and counts a rejection — on any failure.
  /// Thread-safe against concurrent open/seal calls (stats are atomic and
  /// the key registry is read-only while rounds run).
  bool open(const Envelope& env, std::string_view expected_type);

  /// Verifies a batch of envelopes, each against its own type tag, through
  /// one RLC aggregate check (crypto::batch_verify) instead of one Schnorr
  /// verification per envelope — the coordinator's per-phase inbox opened as
  /// a unit. Sub-batches fan out across `pool` when one is given. Result
  /// slot i is 1 iff open(*envelopes[i], envelopes[i]->type) would return
  /// true; Stats accounting is identical to calling open() serially on each.
  /// (Plain bytes, not vector<bool>, so pool workers write independently
  /// addressable slots.)
  std::vector<unsigned char> open_batch(std::span<const Envelope* const> envelopes,
                                        common::ThreadPool* pool = nullptr);

  /// Mirrors ClusterConfig::batch_verify so verification sites that only see
  /// the transport (request checks, the pipeline's inbox seam) can route
  /// through the batched path.
  bool batch_verify() const { return batch_verify_; }

  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

 private:
  static Bytes signing_preimage(const Envelope& env);

  // Audited for the thread-safety pass: keys are registered only during
  // cluster setup (before any round traffic or pool fan-out exists) and are
  // read-only while rounds run; the registry's aggregate cache locks itself.
  // Everything mutated on the hot path (the stats_ counters) is atomic.
  crypto::KeyRegistry keys_;  // confined(setup)
  Stats stats_;  // confined(shared-atomics): every field is a relaxed atomic
  const bool batch_verify_;  // confined(ctor)
};

}  // namespace fides

// Schnorr digital signatures over secp256k1 (§2.1).
//
// Every server and client in Fides holds a Schnorr keypair; every message
// exchanged is signed by the sender and verified by the receiver (§3.1).
// Signatures are (R, s) with R = k·G, c = H(ser(R) ‖ ser(P) ‖ m) mod n,
// s = k + c·x mod n; verification checks s·G == R + c·P on Curve::msm's one
// ladder. A key the cluster knows is checked through its KeyTable, whose
// multiples were built once at registration; a key seen once gets a small
// table built for the call.
//
// Nonces are derived deterministically from (secret key, message) in the
// spirit of RFC 6979, so signing is reproducible and never reuses a nonce
// across distinct messages.
#pragma once

#include "crypto/secp256k1.hpp"

namespace fides::crypto {

/// Serialized-affine public key. Comparable, hashable via its bytes.
struct PublicKey {
  AffinePoint point;

  friend bool operator==(const PublicKey&, const PublicKey&) = default;

  Bytes serialize() const { return point.serialize(); }
};

struct Signature {
  AffinePoint r;  ///< commitment R = k·G
  U256 s;         ///< response

  Bytes serialize() const;
  /// Parses and structurally validates: R must be a non-infinity on-curve
  /// point and s must be canonical (s < n). Malformed signatures are rejected
  /// here, once, at the trust boundary — verify() never sees them.
  static std::optional<Signature> deserialize(BytesView b);
};

class KeyPair {
 public:
  /// Derives a keypair from 32 seed bytes (reduced mod n; must not reduce
  /// to zero — the named constructors guarantee it).
  static KeyPair from_seed(BytesView seed32);

  /// Deterministic per-node keypair; convenient for tests and simulation.
  static KeyPair deterministic(std::uint64_t node_id);

  const PublicKey& public_key() const { return pk_; }
  const U256& secret_key() const { return sk_; }

  Signature sign(BytesView message) const;

 private:
  KeyPair(U256 sk, PublicKey pk) : sk_(sk), pk_(std::move(pk)) {}

  U256 sk_;
  PublicKey pk_;
};

/// A known public key with its precomputed FixedTable (about 12 KB), so no
/// signature or co-sign check under the key rebuilds the key's multiples.
/// The key is validated once, here: the constructor throws
/// std::invalid_argument for infinity or an off-curve point. Every key a
/// cluster knows lives in one crypto::KeyRegistry (key_registry.hpp).
class KeyTable {
 public:
  explicit KeyTable(const PublicKey& key);

  const PublicKey& key() const { return key_; }
  const FixedTable& table() const { return table_; }

 private:
  PublicKey key_;
  FixedTable table_;
};

/// Verifies sig over message under pk, a key seen once: the ladder builds
/// pk's table for this call. Cheap rejection on malformed points.
bool verify(const PublicKey& pk, BytesView message, const Signature& sig);

/// Verifies sig over message under a known key's table. The challenge is
/// derived from key.key(), so the table and the key it checks cannot
/// disagree.
bool verify(const KeyTable& key, BytesView message, const Signature& sig);

/// One signature in a batch_verify call. The referenced objects must outlive
/// the call; no ownership is taken.
struct BatchItem {
  const PublicKey* pk;
  BytesView message;
  const Signature* sig;
};

/// Batch verification via a random linear combination: instead of n
/// independent checks sᵢ·G == Rᵢ + cᵢ·Pᵢ, draw coefficients zᵢ and test
///   (Σ zᵢsᵢ)·G == Σ zᵢ·Rᵢ + Σ (zᵢcᵢ)·Pᵢ
/// with one multi-scalar multiplication. A forged signature survives only if
/// the adversary predicts zᵢ, so the zᵢ are derived Fiat–Shamir-style from a
/// hash of the whole batch (128-bit, forced nonzero) — deterministic across
/// runs, unpredictable to a signer. When the aggregate check fails the batch
/// is split recursively (reusing the same zᵢ), bottoming out in individual
/// verifies, so exactly the bad indices are attributed. Returns one byte per
/// item: 1 iff verify(pk, message, sig) would return true.
std::vector<unsigned char> batch_verify(std::span<const BatchItem> items);

}  // namespace fides::crypto

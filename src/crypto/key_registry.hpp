// The key registry: every public key a cluster knows, as a KeyTable.
//
// Keys in Fides are fixed when the cluster is built (§3.1: servers and
// clients know each other's keys), so each one's precomputed table is built
// once, at registration, and every signature check under it reads that
// table. Co-signs are checked against the aggregate key X = ΣX_i of the
// block's signer set (§2.2); the registry sums and tables each distinct set
// once, on first request, and caches it. The signer list a block declares
// must name every signer exactly once: a set that repeats a server has no
// aggregate, so a lone signer cannot pose as a larger set.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/mutex.hpp"
#include "crypto/schnorr.hpp"

namespace fides::crypto {

class KeyRegistry {
 public:
  KeyRegistry() = default;

  /// Registers server_keys[i] as server i.
  explicit KeyRegistry(std::span<const PublicKey> server_keys);

  KeyRegistry(const KeyRegistry&) = delete;
  KeyRegistry& operator=(const KeyRegistry&) = delete;

  /// Registers (or replaces) a key. Setup only: no check may run
  /// concurrently. Replacing a server key drops every cached aggregate.
  /// Throws std::invalid_argument for infinity or an off-curve key.
  void set_server(ServerId id, const PublicKey& key);
  void set_client(ClientId id, const PublicKey& key);

  /// One past the highest registered server id.
  std::size_t num_servers() const { return servers_.size(); }

  /// The key's table, or nullptr if none is registered under the id.
  const KeyTable* server(ServerId id) const;
  const KeyTable* client(ClientId id) const;

  /// The aggregate table of a signer set, built on the set's first request
  /// and shared by every later one, whatever the order of `signers`.
  /// nullptr when the set is empty, repeats a server, names one with no
  /// registered key, or sums to infinity. Safe to call concurrently; a
  /// returned table never changes while the set's keys stay registered.
  const KeyTable* aggregate(std::span<const ServerId> signers) const;

 private:
  std::vector<std::unique_ptr<const KeyTable>> servers_;  // confined(setup)
  std::vector<std::unique_ptr<const KeyTable>> clients_;  // confined(setup)
  mutable common::Mutex mutex_;
  /// Distinct signer set (ascending ids) -> its aggregate; null caches a set
  /// that sums to infinity.
  mutable std::map<std::vector<std::uint32_t>, std::unique_ptr<const KeyTable>> aggregates_
      GUARDED_BY(mutex_);
};

}  // namespace fides::crypto

#include "crypto/key_registry.hpp"

#include <algorithm>

namespace fides::crypto {

namespace {

void put(std::vector<std::unique_ptr<const KeyTable>>& slots, std::uint32_t id,
         const PublicKey& key) {
  if (id >= slots.size()) slots.resize(id + 1);
  slots[id] = std::make_unique<const KeyTable>(key);
}

const KeyTable* get(const std::vector<std::unique_ptr<const KeyTable>>& slots,
                    std::uint32_t id) {
  return id < slots.size() ? slots[id].get() : nullptr;
}

}  // namespace

KeyRegistry::KeyRegistry(std::span<const PublicKey> server_keys) {
  for (std::size_t i = 0; i < server_keys.size(); ++i) {
    put(servers_, static_cast<std::uint32_t>(i), server_keys[i]);
  }
}

void KeyRegistry::set_server(ServerId id, const PublicKey& key) {
  put(servers_, id.value, key);
  common::MutexLock lock(mutex_);
  aggregates_.clear();
}

void KeyRegistry::set_client(ClientId id, const PublicKey& key) {
  put(clients_, id.value, key);
}

const KeyTable* KeyRegistry::server(ServerId id) const { return get(servers_, id.value); }

const KeyTable* KeyRegistry::client(ClientId id) const { return get(clients_, id.value); }

const KeyTable* KeyRegistry::aggregate(std::span<const ServerId> signers) const {
  std::vector<std::uint32_t> set;
  set.reserve(signers.size());
  for (const ServerId s : signers) {
    if (server(s) == nullptr) return nullptr;
    set.push_back(s.value);
  }
  std::sort(set.begin(), set.end());
  if (set.empty() || std::adjacent_find(set.begin(), set.end()) != set.end()) return nullptr;
  if (set.size() == 1) return server(ServerId{set[0]});  // X = X_0: its own table

  common::MutexLock lock(mutex_);
  const auto it = aggregates_.find(set);
  if (it != aggregates_.end()) return it->second.get();
  const Curve& curve = Curve::instance();
  // Every key is affine (Z == 1), so each step is a mixed add.
  Point sum = curve.infinity();
  for (const std::uint32_t s : set) {
    sum = curve.add_mixed(sum, curve.from_affine(servers_[s]->key().point));
  }
  std::unique_ptr<const KeyTable> table;
  if (!sum.is_infinity()) table = std::make_unique<const KeyTable>(PublicKey{curve.to_affine(sum)});
  return aggregates_.emplace(std::move(set), std::move(table)).first->second.get();
}

}  // namespace fides::crypto

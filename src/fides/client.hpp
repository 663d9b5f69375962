// A Fides client (§4.1, Figure 5).
//
// Clients own their transactions end to end: they begin transactions at the
// involved servers, issue reads and writes directly to the owning partitions
// (no front-end transaction managers — those could lie), accumulate the
// read/write sets, assign the commit timestamp, and send the signed
// end-transaction request to the coordinator.
#pragma once

#include <unordered_map>

#include "commit/messages.hpp"
#include "fides/transport.hpp"
#include "txn/rw_set.hpp"

namespace fides {

class Cluster;  // fwd — the client talks to servers through the cluster

/// Handle for one in-flight transaction at the client.
class ClientTxn {
 public:
  TxnId id() const { return id_; }

 private:
  friend class Client;
  TxnId id_;
  txn::RwSetBuilder builder_;
};

class Client {
 public:
  Client(ClientId id, Cluster& cluster);

  ClientId id() const { return id_; }
  const crypto::KeyPair& keypair() const { return keypair_; }

  /// Step 1: Begin Transaction (allocates the txn id; Cluster::client_begin
  /// sends the Begin message to the servers owning the given items).
  ClientTxn begin();

  /// Steps 2-3: read an item through its owning server. Returns the value;
  /// records the entry in the read set.
  Bytes read(ClientTxn& txn, ItemId item);

  /// Steps 2-3: write an item; records the entry. The owning server only
  /// acknowledges with the old item state — the value reaches its shard
  /// when a decided block commits it.
  void write(ClientTxn& txn, ItemId item, Bytes value);

  /// Step 4: End Transaction — builds the signed request for the
  /// coordinator. The commit timestamp comes from the client's Lamport
  /// oracle, merged with every timestamp observed during execution.
  commit::SignedEndTxn end(ClientTxn&& txn);

  /// Verifies a finalized block's co-sign before accepting the decision
  /// (§4.3.1: "the client, with the public keys of all the servers,
  /// verifies the co-sign"): the check runs against the cached aggregate of
  /// every server in `keys`. Triggers-an-audit is modelled as returning
  /// false.
  bool accept_decision(const ledger::Block& block, const crypto::KeyRegistry& keys) const;

  TimestampOracle& oracle() { return oracle_; }

 private:
  ClientId id_;
  Cluster* cluster_;
  crypto::KeyPair keypair_;
  TimestampOracle oracle_;
  std::uint64_t next_seq_{0};
};

}  // namespace fides

#include "fides/client.hpp"

#include "fides/cluster.hpp"

namespace fides {

Client::Client(ClientId id, Cluster& cluster)
    : id_(id),
      cluster_(&cluster),
      keypair_(crypto::KeyPair::deterministic(0xC11E'0000ULL + id.value)),
      oracle_(id) {}

ClientTxn Client::begin() {
  ClientTxn txn;
  txn.id_ = TxnId{id_.value, next_seq_++};
  return txn;
}

Bytes Client::read(ClientTxn& txn, ItemId item) {
  const store::ReadResult r = cluster_->client_read(*this, txn.id_, item);
  oracle_.observe(r.rts);
  oracle_.observe(r.wts);
  txn.builder_.record_read(item, r.value, r.rts, r.wts);
  return r.value;
}

void Client::write(ClientTxn& txn, ItemId item, Bytes value) {
  const WriteAck ack = cluster_->client_write(*this, txn.id_, item, value);
  oracle_.observe(ack.rts);
  oracle_.observe(ack.wts);
  txn.builder_.record_write(item, std::move(value), ack.old_value, ack.rts, ack.wts);
}

commit::SignedEndTxn Client::end(ClientTxn&& txn) {
  commit::SignedEndTxn signed_req;
  signed_req.client = id_;
  signed_req.request.txn.id = txn.id_;
  signed_req.request.txn.commit_ts = oracle_.next();
  signed_req.request.txn.rw = std::move(txn.builder_).build();
  signed_req.signature = keypair_.sign(signed_req.request.serialize());
  return signed_req;
}

bool Client::accept_decision(const ledger::Block& block,
                             const crypto::KeyRegistry& keys) const {
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < keys.num_servers(); ++i) servers.push_back(ServerId{i});
  const crypto::KeyTable* aggregate = keys.aggregate(servers);
  return block.cosign && aggregate != nullptr &&
         crypto::cosi_verify(block.signing_bytes(), *block.cosign, *aggregate);
}

}  // namespace fides

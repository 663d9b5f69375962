// Quickstart: stand up a Fides cluster, run a distributed transaction
// through TFCommit, and audit the result.
//
//   $ ./quickstart
//
// Walks the full §4.1 life-cycle: begin -> read/write -> end-transaction ->
// TFCommit -> replicated tamper-proof log -> datastore update -> audit.
#include <cstdio>

#include "audit/auditor.hpp"
#include "fides/cluster.hpp"

int main() {
  using namespace fides;

  // 1. A cluster of 4 untrusted servers, each owning one shard of 1000
  //    items, multi-versioned (enables per-version audits).
  ClusterConfig config;
  config.num_servers = 4;
  config.items_per_shard = 1000;
  config.versioning = store::VersioningMode::kMulti;
  Cluster cluster(config);
  std::printf("cluster: %u servers, %u items/shard\n", config.num_servers,
              config.items_per_shard);

  // 2. A client runs a distributed read-modify-write transaction across
  //    three shards (items 0, 1, 2 live on servers 0, 1, 2).
  Client& client = cluster.make_client();
  ClientTxn txn = client.begin();
  cluster.client_begin(client, txn.id(), std::vector<ItemId>{0, 1, 2});
  for (const ItemId item : {0, 1, 2}) {
    const Bytes value = client.read(txn, item);
    std::printf("read item %llu = \"%s\" from %s\n",
                static_cast<unsigned long long>(item), to_string(value).c_str(),
                to_string(cluster.owner_of(item)).c_str());
    client.write(txn, item, to_bytes("updated-" + std::to_string(item)));
  }

  // 3. End transaction: the signed request goes to the coordinator, which
  //    runs TFCommit (2PC + collective signing) across all servers.
  const commit::SignedEndTxn request = client.end(std::move(txn));
  const RoundMetrics metrics = cluster.run_block({request});
  std::printf("decision: %s, co-sign valid: %s, measured latency: %.2f ms\n",
              metrics.decision == ledger::Decision::kCommit ? "COMMIT" : "ABORT",
              metrics.cosign_valid ? "yes" : "no",
              metrics.measured_latency_us / 1000.0);

  // 4. The client verifies the collective signature before accepting.
  const ledger::Block& block = cluster.server(ServerId{0}).log().at(0);
  std::printf("client accepts block: %s\n",
              client.accept_decision(block, cluster.server_keys()) ? "yes" : "no");

  // 5. Every server now holds the same tamper-proof log block, and the
  //    datastores reflect the writes.
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    std::printf("%s log head: %s...\n", to_string(ServerId{i}).c_str(),
                cluster.server(ServerId{i}).log().head_hash().hex().substr(0, 16).c_str());
  }
  std::printf("item 0 on its owner: \"%s\"\n",
              to_string(cluster.server(cluster.owner_of(0)).shard().peek(0).value).c_str());

  // 6. An external auditor verifies v-ACID over the whole history.
  audit::Auditor auditor(cluster);
  const audit::AuditReport report = auditor.run();
  std::printf("%s", report.to_string().c_str());
  return report.clean() ? 0 : 1;
}

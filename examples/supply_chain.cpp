// Supply-chain scenario (§1): multiple mutually distrusting administrative
// domains share one Fides database.
//
// A manufacturer, a shipper, and a retailer each host one shard (their own
// inventory records) on infrastructure the others do not trust. Hand-offs
// are distributed transactions across domains; §4.6 group commit terminates
// each hand-off inside the group of involved domains only, and OrdServ
// broadcasts one dependency-ordered stream every domain replicates.
#include <cstdio>

#include "ordserv/group_engine.hpp"

namespace {

using namespace fides;

// Domain 0 = manufacturer, 1 = shipper, 2 = retailer, 3 = customs.
// Item k*4+d lives on domain d: shipment record for lot k at that domain.
constexpr std::uint32_t kDomains = 4;

ItemId lot_at(std::uint64_t lot, std::uint32_t domain) { return lot * kDomains + domain; }

commit::SignedEndTxn handoff(Cluster& cluster, Client& client, std::uint64_t lot,
                             std::uint32_t from, std::uint32_t to,
                             const std::string& state) {
  ClientTxn txn = client.begin();
  const std::vector<ItemId> items = {lot_at(lot, from), lot_at(lot, to)};
  cluster.client_begin(client, txn.id(), items);
  client.read(txn, items[0]);
  client.read(txn, items[1]);
  client.write(txn, items[0], to_bytes("released:" + state));
  client.write(txn, items[1], to_bytes("received:" + state));
  return client.end(std::move(txn));
}

}  // namespace

int main() {
  ClusterConfig config;
  config.num_servers = kDomains;
  config.items_per_shard = 64;
  config.versioning = store::VersioningMode::kSingle;
  Cluster cluster(config);
  Client& client = cluster.make_client();

  ordserv::Sequencer ordserv;

  struct Hop {
    std::uint64_t lot;
    std::uint32_t from, to;
    const char* state;
  };
  const Hop hops[] = {
      {0, 0, 1, "lot0-to-shipper"},   {1, 0, 1, "lot1-to-shipper"},
      {0, 1, 3, "lot0-at-customs"},   {1, 1, 2, "lot1-to-retailer"},
      {0, 3, 2, "lot0-to-retailer"},
  };

  std::printf("running %zu cross-domain hand-offs via group commit:\n",
              std::size(hops));
  for (const Hop& hop : hops) {
    // One run per hand-off: each call extends the cluster's one stream.
    const auto run = cluster.run_group_blocks(
        ordserv, {{handoff(cluster, client, hop.lot, hop.from, hop.to, hop.state)}});
    const ordserv::GroupRoundResult& result = run.rounds.front();
    std::printf("  %-18s group={", hop.state);
    for (const ServerId member : result.group.members) {
      std::printf(" %s", to_string(member).c_str());
    }
    std::printf(" }  decision=%s height=%llu\n",
                result.decision == ledger::Decision::kCommit ? "commit" : "abort",
                static_cast<unsigned long long>(result.global_height));
  }

  // Every domain replicates the same ordered stream; dependencies (same lot
  // touching the same domain records) are reflected in OrdServ's metadata.
  const auto& retailer = cluster.server(ServerId{2}).log();
  std::printf("\nretailer's replicated stream (%zu blocks):\n", retailer.size());
  for (const ledger::Block& block : retailer.blocks()) {
    std::printf("  height %llu deps={", static_cast<unsigned long long>(block.height));
    for (const auto dep : ordserv.at(block.height).depends_on) {
      std::printf(" %llu", static_cast<unsigned long long>(dep));
    }
    std::printf(" } signers=%zu\n", block.signers.size());
  }

  const std::vector<ordserv::SequencedBlock> stream(ordserv.stream().begin(),
                                                    ordserv.stream().end());
  const bool bad = retailer.size() != stream.size() ||
                   ordserv::validate_stream(stream, cluster.server_keys()).has_value();
  std::printf("\nstream validation: %s\n",
              bad ? "FAILED" : "clean (co-signs + chain + dependency order)");
  std::printf("lot0 at retailer: \"%s\"\n",
              to_string(cluster.server(ServerId{2}).shard().peek(lot_at(0, 2)).value)
                  .c_str());
  return bad ? 1 : 0;
}

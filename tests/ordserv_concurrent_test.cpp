// OrdServ under concurrency: epoch reservation and stream submission racing
// from many threads.
//
// The sequencer is the epoch authority for every commit round (group-commit
// CoSi nonce domains, engine round tags), so its guarantees are load-bearing
// across threads: epochs must be unique and gap-free under any interleaving,
// and concurrent submissions must still produce one consistent hash chain
// with dependency metadata pointing strictly backwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "ordserv/group_engine.hpp"
#include "ordserv/sequencer.hpp"

namespace fides::ordserv {
namespace {

TEST(EpochCounter, ConcurrentReservationsAreUniqueAndGapFree) {
  EpochCounter epochs;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 500;

  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t].reserve(kPerThread);
      for (std::size_t i = 0; i < kPerThread; ++i) got[t].push_back(epochs.reserve());
    });
  }
  for (auto& th : threads) th.join();

  std::vector<std::uint64_t> all;
  for (const auto& v : got) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), kThreads * kPerThread);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], i + 1) << "epoch stream has a gap or duplicate";
  }
  EXPECT_EQ(epochs.issued(), kThreads * kPerThread);

  // Per-thread reservations are monotone (each thread sees time move forward).
  for (const auto& v : got) {
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  }
}

ledger::Block block_touching(ItemId item, const std::string& tag) {
  ledger::Block b;
  txn::Transaction t;
  t.id = TxnId{0, item};
  t.rw.writes.push_back({item, to_bytes(tag), {}, {}, {}});
  b.txns.push_back(std::move(t));
  b.decision = ledger::Decision::kCommit;
  return b;
}

TEST(Sequencer, ConcurrentSubmissionsFormOneConsistentChain) {
  Sequencer seq;
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kPerThread = 50;

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        // Every thread repeatedly touches its own item plus a shared one, so
        // cross-thread dependencies are guaranteed to exist.
        const ItemId item = (i % 2 == 0) ? ItemId{1000 + t} : ItemId{42};
        ServerGroup group;
        group.members = {ServerId{static_cast<std::uint32_t>(t)}};
        group.coordinator = group.members[0];
        seq.submit(block_touching(item, "t" + std::to_string(t)), group);
      }
    });
  }
  for (auto& th : threads) th.join();

  ASSERT_EQ(seq.size(), kThreads * kPerThread);
  crypto::Digest expected_prev = crypto::Digest{};
  for (std::size_t h = 0; h < seq.stream().size(); ++h) {
    const SequencedBlock& entry = seq.stream()[h];
    EXPECT_EQ(entry.block.height, h);
    EXPECT_TRUE(entry.block.prev_hash == expected_prev) << "chain broken at " << h;
    for (const std::uint64_t dep : entry.depends_on) {
      EXPECT_LT(dep, h) << "dependency points forward at " << h;
    }
    expected_prev = entry.block.digest();
  }
}

TEST(GroupCommit, RunsSharingASequencerNeverReuseACosiRound) {
  // Group rounds publishing through one OrdServ must draw distinct epochs —
  // reusing a CoSi round id across groups would reuse nonce domains. Each
  // run_group_blocks call draws from the sequencer's counter, not from the
  // cluster's own engine counter, so a later run never restarts at epoch 1.
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.items_per_shard = 16;
  Cluster cluster(cfg);
  Client& client = cluster.make_client();
  Sequencer seq;

  auto run_one = [&](ItemId item) {
    ClientTxn txn = client.begin();
    cluster.client_begin(client, txn.id(), std::vector<ItemId>{item});
    client.read(txn, item);
    client.write(txn, item, to_bytes("v"));
    return cluster.run_group_blocks(seq, {{client.end(std::move(txn))}}).rounds.front();
  };

  const std::uint64_t before = seq.epochs().issued();
  ASSERT_EQ(run_one(0).decision, ledger::Decision::kCommit);  // group {S0}
  ASSERT_EQ(run_one(1).decision, ledger::Decision::kCommit);  // group {S1}
  ASSERT_EQ(run_one(2).decision, ledger::Decision::kCommit);  // group {S2}
  // Three rounds, three distinct epochs — whichever group ran.
  EXPECT_EQ(seq.epochs().issued(), before + 3);
  EXPECT_EQ(cluster.epochs().issued(), 0u);
}

}  // namespace
}  // namespace fides::ordserv

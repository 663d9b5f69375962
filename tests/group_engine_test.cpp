// Engine-routed group commit (§4.6): multi-coordinator dispatch.
//
// The contract (ordserv/group_engine.hpp): the same batch stream produces a
// bit-identical sequenced stream — and identical per-server replicated logs —
// at every scheduler (direct at any thread count, SimNet at any seed),
// pipeline depth, and speculation setting, whether the batches go through
// one run or one run each; crash/recovery of members and group coordinators
// converges on the same stream. The reference is the engine at depth 1 on
// one thread under the in-process scheduler, and SHA-256 pins hold its
// bytes. Batches are minted once against a pristine cluster and replayed on
// fresh clusters (client keys are deterministic).
#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/sha256.hpp"
#include "ordserv/group_engine.hpp"

namespace fides::ordserv {
namespace {

ClusterConfig base_config() {
  ClusterConfig cfg;
  cfg.num_servers = 5;
  cfg.items_per_shard = 20;
  cfg.versioning = store::VersioningMode::kSingle;
  return cfg;
}

commit::SignedEndTxn rw_txn(Client& client, std::vector<ItemId> items,
                            const std::string& tag) {
  ClientTxn txn = client.begin();
  for (const ItemId item : items) {
    client.read(txn, item);
    client.write(txn, item, to_bytes(tag + "-" + std::to_string(item)));
  }
  return client.end(std::move(txn));
}

/// A deterministic batch stream with known group structure (5 servers; item
/// i lives on server i % 5): disjoint groups, overlapping groups, and a
/// cross-group batch that depends on both sides.
std::vector<std::vector<commit::SignedEndTxn>> mint_batches() {
  Cluster mint(base_config());
  Client& client = mint.make_client();
  std::vector<std::vector<commit::SignedEndTxn>> batches;
  batches.push_back({rw_txn(client, {0, 6}, "a")});    // servers {0,1}
  batches.push_back({rw_txn(client, {2, 8}, "b")});    // servers {2,3}, disjoint
  batches.push_back({rw_txn(client, {4}, "c")});       // server {4}, disjoint
  batches.push_back({rw_txn(client, {6, 12}, "d")});   // servers {1,2}: bridges
  batches.push_back({rw_txn(client, {0}, "e"),         // servers {0,4}
                     rw_txn(client, {9}, "f")});
  batches.push_back({rw_txn(client, {3, 14}, "g")});   // servers {3,4}
  return batches;
}

/// Everything the contract says must be schedule-independent.
struct StreamFingerprint {
  std::vector<Bytes> blocks;  ///< serialized sequenced blocks, height order
  std::vector<std::vector<std::uint64_t>> deps;
  std::vector<std::vector<ServerId>> groups;
  std::vector<std::size_t> log_sizes;          // per server
  std::vector<crypto::Digest> head_hashes;     // per server
  std::vector<crypto::Digest> merkle_roots;    // per server
  std::vector<std::string> faults;             // per round
  std::vector<unsigned char> cosigns;          // per round

  friend bool operator==(const StreamFingerprint&, const StreamFingerprint&) = default;
};

StreamFingerprint fingerprint(const Cluster& cluster, const Sequencer& seq,
                              const GroupRunResult& result) {
  StreamFingerprint fp;
  for (const SequencedBlock& e : seq.stream()) {
    fp.blocks.push_back(e.block.serialize());
    fp.deps.push_back(e.depends_on);
    fp.groups.push_back(e.group.members);
  }
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    const Server& s = cluster.server(ServerId{i});
    fp.log_sizes.push_back(s.log().size());
    fp.head_hashes.push_back(s.log().head_hash());
    fp.merkle_roots.push_back(s.shard().merkle_root());
  }
  for (const GroupRoundResult& r : result.rounds) {
    fp.faults.push_back(r.fault);
    fp.cosigns.push_back(r.cosign_valid ? 1 : 0);
  }
  return fp;
}

/// SHA-256 pins of a sequenced stream and of every server's copy of it.
struct StreamPins {
  std::string blocks;  ///< the serialized sequenced blocks, height order
  std::string deps;    ///< their depends_on lists
  std::string heads;   ///< every server's log head hash, server order
};

StreamPins pins(const Sequencer& seq, const std::vector<crypto::Digest>& heads) {
  Writer blocks;
  Writer deps;
  Writer hs;
  for (const SequencedBlock& e : seq.stream()) {
    blocks.bytes(e.block.serialize());
    deps.u32(static_cast<std::uint32_t>(e.depends_on.size()));
    for (const std::uint64_t d : e.depends_on) deps.u64(d);
  }
  for (const crypto::Digest& h : heads) hs.raw(h.view());
  return {crypto::sha256(std::move(blocks).take()).hex(),
          crypto::sha256(std::move(deps).take()).hex(),
          crypto::sha256(std::move(hs).take()).hex()};
}

std::vector<crypto::Digest> log_heads(const Cluster& cluster) {
  std::vector<crypto::Digest> heads;
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    heads.push_back(cluster.server(ServerId{i}).log().head_hash());
  }
  return heads;
}

void expect_pins(const StreamPins& got, const StreamPins& want, const char* who) {
  EXPECT_EQ(got.blocks, want.blocks) << who << ": sequenced blocks";
  EXPECT_EQ(got.deps, want.deps) << who << ": depends_on lists";
  EXPECT_EQ(got.heads, want.heads) << who << ": per-server log heads";
}

/// The stream mint_batches() sequences, at every scheduler and depth.
const StreamPins kMintPins{
    "b2590d66eb2867f0354d97813f159f9da92312e270238f217425c5e3d60a3c57",
    "3c0c918105e5818936c2eeee48d5cb63676a79a1ebefbae29fd1b2b18cff4bce",
    "1428c55196c58db21d818d2d62dffe3c573eed4d2037adae1cc558b07388fede"};

StreamFingerprint run_engine(ClusterConfig cfg,
                             const std::vector<std::vector<commit::SignedEndTxn>>& batches) {
  Cluster cluster(cfg);
  cluster.make_client();  // registers the deterministic client key
  Sequencer seq;
  const GroupRunResult result = cluster.run_group_blocks(seq, batches);
  for (const auto& refusal : result.delivery_refusals) {
    EXPECT_FALSE(refusal.has_value()) << refusal->reason;
  }
  return fingerprint(cluster, seq, result);
}

TEST(GroupEngine, OneRunPerBatchMatchesOneRunBitForBit) {
  const auto batches = mint_batches();

  // Reference: every batch in one run at depth 1, one thread, in-process.
  Cluster ref_cluster(base_config());
  ref_cluster.make_client();
  Sequencer ref_seq;
  const std::vector<GroupRoundResult> ref_rounds =
      ref_cluster.run_group_blocks(ref_seq, batches).rounds;

  // Lock-step: one run per batch on one cluster and sequencer, each run
  // extending the stream the earlier runs left.
  Cluster cluster(base_config());
  cluster.make_client();
  Sequencer seq;
  GroupRunResult result;
  for (const auto& batch : batches) {
    GroupRunResult one = cluster.run_group_blocks(seq, {batch});
    for (const auto& refusal : one.delivery_refusals) EXPECT_FALSE(refusal.has_value());
    result.rounds.push_back(std::move(one.rounds.front()));
  }

  ASSERT_EQ(result.rounds.size(), ref_rounds.size());
  ASSERT_EQ(seq.size(), ref_seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq.stream()[i].block.serialize(), ref_seq.stream()[i].block.serialize())
        << "height " << i;
    EXPECT_EQ(seq.stream()[i].depends_on, ref_seq.stream()[i].depends_on);
    EXPECT_EQ(seq.stream()[i].group.members, ref_seq.stream()[i].group.members);
  }
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    EXPECT_EQ(result.rounds[i].decision, ref_rounds[i].decision) << "round " << i;
    EXPECT_EQ(result.rounds[i].cosign_valid, ref_rounds[i].cosign_valid);
    EXPECT_EQ(result.rounds[i].global_height, ref_rounds[i].global_height);
    EXPECT_EQ(result.rounds[i].group.members, ref_rounds[i].group.members);
    EXPECT_EQ(result.rounds[i].fault, ref_rounds[i].fault);
  }
  // Engine delivery goes through the servers' real ledgers; every server
  // replicates the full stream.
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    EXPECT_EQ(cluster.server(ServerId{i}).log().size(), seq.size());
  }
  expect_pins(pins(ref_seq, log_heads(ref_cluster)), kMintPins, "one run");
  expect_pins(pins(seq, log_heads(cluster)), kMintPins, "one run per batch");
}

TEST(GroupEngine, SchedulersDepthsSpeculationIdentical) {
  const auto batches = mint_batches();

  ClusterConfig d1 = base_config();
  d1.pipeline_depth = 1;
  const StreamFingerprint base = run_engine(d1, batches);
  ASSERT_EQ(base.blocks.size(), 6u);
  EXPECT_FALSE(base.blocks.empty());

  for (const std::uint32_t depth : {2u, 4u, 8u}) {
    for (const bool spec : {false, true}) {
      ClusterConfig cfg = base_config();
      cfg.pipeline_depth = depth;
      cfg.speculate = spec;
      EXPECT_TRUE(run_engine(cfg, batches) == base)
          << "direct depth " << depth << " spec " << spec;
    }
  }
  for (const std::uint32_t threads : {2u, 8u}) {
    ClusterConfig cfg = base_config();
    cfg.pipeline_depth = 4;
    cfg.num_threads = threads;
    EXPECT_TRUE(run_engine(cfg, batches) == base) << threads << " threads";
  }
  for (const std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
    for (const bool spec : {false, true}) {
      ClusterConfig cfg = base_config();
      cfg.network.mode = sim::NetworkMode::kSimulated;
      cfg.network.sim.seed = seed;
      cfg.pipeline_depth = 4;
      cfg.speculate = spec;
      EXPECT_TRUE(run_engine(cfg, batches) == base)
          << "simnet seed " << seed << " spec " << spec;
    }
  }
}

TEST(GroupEngine, CrossGroupDependenciesSerializeInStreamOrder) {
  const auto batches = mint_batches();
  ClusterConfig cfg = base_config();
  cfg.network.mode = sim::NetworkMode::kSimulated;
  cfg.pipeline_depth = 4;
  cfg.speculate = true;
  Cluster cluster(cfg);
  cluster.make_client();
  Sequencer seq;
  const GroupRunResult result = cluster.run_group_blocks(seq, batches);

  // The whole stream validates from genesis (chain, co-signs, dependencies).
  std::vector<SequencedBlock> stream(seq.stream().begin(), seq.stream().end());
  EXPECT_FALSE(validate_stream(stream, cluster.server_keys()).has_value());

  // Dependency-order oracle: every cross-group entry depends on the last
  // earlier entry touching any common item, and heights are stream order.
  std::unordered_map<ItemId, std::uint64_t> last_touch;
  for (const SequencedBlock& e : stream) {
    for (const auto& t : e.block.txns) {
      for (const ItemId item : t.rw.touched_items()) {
        const auto it = last_touch.find(item);
        if (it != last_touch.end()) {
          EXPECT_NE(std::find(e.depends_on.begin(), e.depends_on.end(), it->second),
                    e.depends_on.end())
              << "height " << e.block.height << " missing dependency on "
              << it->second;
        }
      }
    }
    for (const auto& t : e.block.txns) {
      for (const ItemId item : t.rw.touched_items()) last_touch[item] = e.block.height;
    }
  }
  // Batch 3 ({6,12}: servers 1,2) bridges batches 0 and 1's groups.
  ASSERT_GE(seq.size(), 4u);
  EXPECT_EQ(result.rounds[3].group.members,
            (std::vector<ServerId>{ServerId{1}, ServerId{2}}));
  EXPECT_FALSE(seq.stream()[3].depends_on.empty());
}

TEST(GroupEngine, MemberCrashRecoversToIdenticalStream) {
  const auto batches = mint_batches();
  const StreamFingerprint base = run_engine(base_config(), batches);

  for (const std::uint32_t victim : {1u, 2u}) {
    ClusterConfig cfg = base_config();
    cfg.network.mode = sim::NetworkMode::kSimulated;
    cfg.pipeline_depth = 4;
    CrashFault cf;
    cf.server = victim;
    cf.at_us = 150;  // mid-run on the virtual clock
    cf.downtime_us = 2000;
    cfg.crashes.push_back(cf);
    EXPECT_TRUE(run_engine(cfg, batches) == base) << "crash victim S" << victim;
  }
}

TEST(GroupEngine, GroupCoordinatorCrashRestartsRoundDeterministically) {
  const auto batches = mint_batches();
  const StreamFingerprint base = run_engine(base_config(), batches);

  // Server 0 coordinates the {0,1} and {0,4} groups; server 3 coordinates
  // {3,4}. Crashing either mid-run must replay to the same stream.
  for (const std::uint32_t victim : {0u, 3u}) {
    for (const bool spec : {false, true}) {
      ClusterConfig cfg = base_config();
      cfg.network.mode = sim::NetworkMode::kSimulated;
      cfg.pipeline_depth = 4;
      cfg.speculate = spec;
      CrashFault cf;
      cf.server = victim;
      cf.at_us = 120;
      cf.downtime_us = 3000;
      cfg.crashes.push_back(cf);
      EXPECT_TRUE(run_engine(cfg, batches) == base)
          << "coordinator S" << victim << " spec " << spec;
    }
  }
}

TEST(GroupEngine, DurableLogsReplayGroupCommitsAfterCrash) {
  // Crash → recover mid-run, then inspect the recovered server directly: its
  // ledger must be rebuilt from the durable round log and match the stream.
  const auto batches = mint_batches();
  ClusterConfig cfg = base_config();
  cfg.network.mode = sim::NetworkMode::kSimulated;
  CrashFault cf;
  cf.server = 1;
  cf.at_us = 200;
  cf.downtime_us = 1500;
  cfg.crashes.push_back(cf);
  Cluster cluster(cfg);
  cluster.make_client();
  Sequencer seq;
  cluster.run_group_blocks(seq, batches);

  const Server& recovered = cluster.server(ServerId{1});
  ASSERT_EQ(recovered.log().size(), seq.size());
  for (std::size_t h = 0; h < seq.size(); ++h) {
    EXPECT_EQ(recovered.log().blocks()[h].serialize(), seq.stream()[h].block.serialize())
        << "height " << h;
  }
}

TEST(GroupEngine, EmptyBatchRefusedWithoutEpochOrTraffic) {
  Cluster mint(base_config());
  Client& client = mint.make_client();
  std::vector<std::vector<commit::SignedEndTxn>> batches;
  batches.push_back({});  // refused at submission
  batches.push_back({rw_txn(client, {0, 6}, "a")});

  Cluster cluster(base_config());
  cluster.make_client();
  Sequencer seq;
  const GroupRunResult result = cluster.run_group_blocks(seq, batches);
  ASSERT_EQ(result.rounds.size(), 2u);
  EXPECT_EQ(result.rounds[0].fault, "empty batch refused at submission");
  EXPECT_EQ(result.rounds[0].decision, ledger::Decision::kAbort);
  EXPECT_EQ(result.rounds[1].fault, "");
  EXPECT_EQ(result.rounds[1].decision, ledger::Decision::kCommit);
  // The refused batch consumed nothing: one sequenced entry, one epoch.
  EXPECT_EQ(seq.size(), 1u);
  EXPECT_EQ(seq.epochs().issued(), 1u);
  EXPECT_EQ(result.rounds[1].global_height, 0u);
}

TEST(GroupEngine, ByzantineCosignerRefusedAndLaterGroupsProceed) {
  Cluster mint(base_config());
  Client& client = mint.make_client();
  std::vector<std::vector<commit::SignedEndTxn>> batches;
  batches.push_back({rw_txn(client, {0, 6}, "a")});  // servers {0,1}: sabotaged
  batches.push_back({rw_txn(client, {2, 8}, "b")});  // servers {2,3}: honest

  Cluster cluster(base_config());
  cluster.make_client();
  cluster.server(ServerId{1}).faults().cohort.corrupt_sch_response = true;
  Sequencer seq;
  const GroupRunResult result = cluster.run_group_blocks(seq, batches);

  EXPECT_FALSE(result.rounds[0].cosign_valid);
  EXPECT_EQ(result.rounds[0].fault, "co-sign did not verify");
  EXPECT_TRUE(result.rounds[1].cosign_valid);
  // Only the honest round was sequenced — at height 0, chain intact.
  ASSERT_EQ(seq.size(), 1u);
  EXPECT_EQ(result.rounds[1].global_height, 0u);
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    EXPECT_EQ(cluster.server(ServerId{i}).log().size(), 1u);
  }
}

/// The 24-batch stream of RacingGroupCoordinatorsKeepEpochAndStreamDiscipline.
const StreamPins kRacingPins{
    "4a1915bdb9dcb8b9cb4ad4fd1296ae6725bb35e6b592e20df0282f646247b282",
    "e4f6feb786d8ee62ed984347664c80af2e8b065a6cbd96ce902951ce6531f040",
    "449a17d6f1178715f1923522c1e62cc3052de90dc5fbaaedd342737fc2e84c0d"};

TEST(GroupEngine, RacingGroupCoordinatorsKeepEpochAndStreamDiscipline) {
  // Many group rounds in flight on a multi-threaded scheduler: disjoint
  // groups race their coordinators concurrently, overlapping groups bridge
  // them. Epochs must stay unique and gap-free, the stream must respect
  // dependency order, and the result must be bit-identical to the depth-1,
  // one-thread run.
  ClusterConfig cfg;
  cfg.num_servers = 6;
  cfg.items_per_shard = 32;
  cfg.versioning = store::VersioningMode::kSingle;

  // Minted once; replayed on fresh clusters (deterministic client keys).
  Cluster mint(cfg);
  Client& client = mint.make_client();
  auto rw = [&](std::vector<ItemId> items, const std::string& tag) {
    ClientTxn txn = client.begin();
    for (const ItemId item : items) {
      client.read(txn, item);
      client.write(txn, item, to_bytes(tag + "-" + std::to_string(item)));
    }
    return client.end(std::move(txn));
  };
  std::vector<std::vector<commit::SignedEndTxn>> batches;
  for (std::uint32_t i = 0; i < 24; ++i) {
    const std::uint32_t g = i % 3;  // groups {0,1}, {2,3}, {4,5} (item = server)
    if (i % 8 == 7) {
      // A bridging batch across two of the disjoint groups.
      batches.push_back({rw({ItemId{g * 2}, ItemId{(g * 2 + 2) % 6}},
                            "x" + std::to_string(i))});
    } else {
      batches.push_back({rw({ItemId{g * 2}, ItemId{g * 2 + 1}},
                            "t" + std::to_string(i))});
    }
  }

  // Reference: depth 1, one thread, in-process.
  Cluster ref(cfg);
  ref.make_client();
  Sequencer ref_seq;
  ref.run_group_blocks(ref_seq, batches);

  // Engine on 8 worker threads, deep pipeline, speculation on — maximum
  // coordinator concurrency.
  ClusterConfig ecfg = cfg;
  ecfg.num_threads = 8;
  ecfg.pipeline_depth = 8;
  ecfg.speculate = true;
  Cluster cluster(ecfg);
  cluster.make_client();
  Sequencer seq;
  const GroupRunResult result = cluster.run_group_blocks(seq, batches);

  // Epoch discipline: one epoch per admissible round, no reuse, no gaps.
  EXPECT_EQ(seq.epochs().issued(), batches.size());

  // Bit-identity with the reference.
  ASSERT_EQ(seq.size(), ref_seq.size());
  for (std::size_t h = 0; h < seq.size(); ++h) {
    EXPECT_EQ(seq.stream()[h].block.serialize(), ref_seq.stream()[h].block.serialize())
        << "height " << h;
    EXPECT_EQ(seq.stream()[h].depends_on, ref_seq.stream()[h].depends_on);
  }

  // Dependency-order oracle over the engine's stream.
  std::unordered_map<ItemId, std::uint64_t> last_touch;
  for (const SequencedBlock& e : seq.stream()) {
    for (const auto& t : e.block.txns) {
      for (const ItemId item : t.rw.touched_items()) {
        const auto it = last_touch.find(item);
        if (it != last_touch.end()) {
          EXPECT_NE(std::find(e.depends_on.begin(), e.depends_on.end(), it->second),
                    e.depends_on.end())
              << "height " << e.block.height << " hides a dependency";
        }
        last_touch[item] = e.block.height;
      }
    }
  }

  // Delivery applied the whole stream at every server, refusal-free.
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    EXPECT_FALSE(result.delivery_refusals[i].has_value());
    EXPECT_EQ(cluster.server(ServerId{i}).log().size(), seq.size());
  }
  expect_pins(pins(ref_seq, log_heads(ref)), kRacingPins, "depth 1");
  expect_pins(pins(seq, log_heads(cluster)), kRacingPins, "8 threads");
}

}  // namespace
}  // namespace fides::ordserv

// Crash/recovery subsystem tests (ctest label: recovery).
//
// Four layers of coverage:
//   (i)   RoundLog — append/replay round-trips, chained-integrity refusal on
//         tampering, file-backed persistence across reopen.
//   (ii)  Direct-mode Cluster::crash_server / recover_server — a server
//         rebuilt from its durable round log between rounds is bit-identical
//         to one that never crashed, and a tampered log refuses to restore
//         (the vote-once / no-equivocation lock).
//   (iii) The crash-point matrix — for every reactor state transition ×
//         protocol (TFCommit, 2PC, checkpoint, group commit) × pipeline
//         depth, crash one server exactly at that transition over SimNet,
//         recover it mid-run, and assert the final ledgers (sizes, head hashes —
//         which cover the co-sign bits — and Merkle roots) are bit-identical
//         to an uncrashed run, with zero vote equivocations.
//   (iv)  The paper's headline contrast — a dead TFCommit coordinator is
//         routed around by the surviving cohorts (co-signed abort, signers =
//         survivors), while the same schedule under 2PC blocks until the
//         coordinator returns.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <set>
#include <cstdlib>

#include "ledger/round_log.hpp"
#include "ordserv/group_engine.hpp"
#include "sim/simnet.hpp"
#include "workload/ycsb.hpp"

namespace fides {
namespace {

// --- RoundLog ------------------------------------------------------------------

ledger::RoundRecord vote_record(std::uint64_t epoch, const std::string& body) {
  ledger::RoundRecord rec;
  rec.type = ledger::RoundRecord::Type::kVote;
  rec.epoch = epoch;
  rec.msg_type = "tf_vote";
  rec.payload = to_bytes(body);
  return rec;
}

TEST(RoundLog, MemRoundTripAndIntegrity) {
  ledger::MemRoundLog log;
  log.append(vote_record(7, "vote-bytes"));
  ledger::RoundRecord dec;
  dec.type = ledger::RoundRecord::Type::kDecision;
  dec.epoch = 7;
  dec.msg_type = "tf_decision";
  dec.payload = to_bytes("block-bytes");
  log.append(dec);

  const auto replayed = log.replay();
  ASSERT_TRUE(replayed.has_value());
  ASSERT_EQ(replayed->size(), 2u);
  EXPECT_EQ((*replayed)[0], vote_record(7, "vote-bytes"));
  EXPECT_EQ((*replayed)[1], dec);

  // One flipped byte anywhere breaks the hash chain: replay refuses.
  log.tamper(0, 12);
  EXPECT_FALSE(log.replay().has_value());
}

TEST(RoundLog, FilePersistsAcrossReopenAndDetectsCorruption) {
  const std::string path =
      ::testing::TempDir() + "fides_roundlog_" + std::to_string(::getpid()) + ".rlog";
  std::remove(path.c_str());
  {
    ledger::FileRoundLog log(path);
    EXPECT_EQ(log.size(), 0u);
    log.append(vote_record(1, "a"));
    log.append(vote_record(2, "b"));
  }
  {
    // Reopen: the chain continues where the file left off.
    ledger::FileRoundLog log(path);
    EXPECT_EQ(log.size(), 2u);
    log.append(vote_record(3, "c"));
    const auto replayed = log.replay();
    ASSERT_TRUE(replayed.has_value());
    ASSERT_EQ(replayed->size(), 3u);
    EXPECT_EQ((*replayed)[2], vote_record(3, "c"));
  }
  // Flip one payload byte on disk: replay refuses.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 10, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 10, SEEK_SET);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  ledger::FileRoundLog log(path);
  EXPECT_FALSE(log.replay().has_value());
  std::remove(path.c_str());
}

TEST(RoundLog, FileReplayBoundsLengthFieldByFileSize) {
  // A length field is checked against the bytes left in the file before the
  // record buffer is allocated: a corrupt header claiming 2^28 - 1 bytes, or
  // one byte more than the file holds, replays as nullopt instead of sizing
  // an allocation from it. An exact-fit record still replays.
  const std::string path =
      ::testing::TempDir() + "fides_roundlog_len_" + std::to_string(::getpid()) + ".rlog";
  std::remove(path.c_str());
  { ledger::FileRoundLog(path).append(vote_record(5, "exact")); }
  Bytes valid;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    for (int c; (c = std::fgetc(f)) != EOF;) valid.push_back(static_cast<std::uint8_t>(c));
    std::fclose(f);
  }
  ASSERT_GT(valid.size(), 4u + 32u);
  const auto replay_bytes = [&](const Bytes& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return ledger::FileRoundLog(path).replay();
  };
  const auto with_len = [](Bytes bytes, std::size_t at, std::uint32_t len) {
    for (int i = 0; i < 4; ++i) bytes[at + i] = static_cast<std::uint8_t>(len >> (8 * i));
    return bytes;
  };
  const std::uint32_t len = static_cast<std::uint32_t>(valid.size() - 4 - 32);

  const auto exact = replay_bytes(valid);
  ASSERT_TRUE(exact.has_value());
  ASSERT_EQ(exact->size(), 1u);
  EXPECT_EQ((*exact)[0], vote_record(5, "exact"));

  // Replaying the 2^28 - 1 claim must not fault in a buffer of that size.
  const auto peak_rss_kib = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
  };
  const long peak_before = peak_rss_kib();
  EXPECT_FALSE(replay_bytes(with_len(valid, 0, (1u << 28) - 1)).has_value());
  EXPECT_LT(peak_rss_kib() - peak_before, 64L * 1024) << "replay allocated from a corrupt length";
  EXPECT_FALSE(replay_bytes(with_len(valid, 0, len + 1)).has_value());
  // The same two headers on a second record, after a valid first one.
  Bytes two = valid;
  two.insert(two.end(), valid.begin(), valid.end());
  EXPECT_FALSE(replay_bytes(with_len(two, valid.size(), (1u << 28) - 1)).has_value());
  EXPECT_FALSE(replay_bytes(with_len(two, valid.size(), len + 1)).has_value());
  std::remove(path.c_str());
}

// --- Shared drivers ------------------------------------------------------------

ClusterConfig recovery_config(Protocol protocol, std::uint32_t depth) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.items_per_shard = 24;
  cfg.versioning = store::VersioningMode::kMulti;
  cfg.max_batch_size = 8;
  cfg.protocol = protocol;
  cfg.pipeline_depth = depth;
  cfg.network.mode = sim::NetworkMode::kSimulated;
  cfg.network.sim.seed = 29;
  cfg.network.sim.link.min_delay_us = 10;
  cfg.network.sim.link.max_delay_us = 300;
  return cfg;
}

/// A deterministic multi-block stream minted on a throwaway cluster (client
/// keys are deterministic per id, so the signatures verify anywhere).
std::vector<std::vector<commit::SignedEndTxn>> mint_batches(const ClusterConfig& cfg,
                                                            std::size_t blocks) {
  Cluster mint(cfg);
  Client& client = mint.make_client();
  workload::YcsbWorkload workload(
      {}, static_cast<std::uint64_t>(cfg.num_servers) * cfg.items_per_shard, 99);
  std::vector<std::vector<commit::SignedEndTxn>> batches;
  for (std::size_t b = 0; b < blocks; ++b) {
    workload.begin_batch();
    std::vector<commit::SignedEndTxn> batch;
    for (std::size_t i = 0; i < 3; ++i) batch.push_back(workload.run_transaction(client));
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct LedgerFingerprint {
  std::vector<ledger::Decision> decisions;
  std::vector<std::size_t> log_sizes;
  std::vector<crypto::Digest> head_hashes;  // block digests cover the co-signs
  std::vector<crypto::Digest> merkle_roots;

  friend bool operator==(const LedgerFingerprint&, const LedgerFingerprint&) = default;
};

LedgerFingerprint fingerprint(Cluster& cluster, const PipelineResult& result) {
  LedgerFingerprint fp;
  for (const RoundMetrics& m : result.rounds) fp.decisions.push_back(m.decision);
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    const Server& s = cluster.server(ServerId{i});
    fp.log_sizes.push_back(s.log().size());
    fp.head_hashes.push_back(s.log().head_hash());
    fp.merkle_roots.push_back(s.shard().merkle_root());
  }
  return fp;
}

/// Runs the batch stream, optionally crashing one server at a transition
/// (recovering it after `downtime_us` of virtual time), and fingerprints
/// the outcome. Every round must be equivocation-free.
LedgerFingerprint run_commit(ClusterConfig cfg,
                             const std::vector<std::vector<commit::SignedEndTxn>>& batches,
                             const char* what) {
  Cluster cluster(cfg);
  cluster.make_client();
  const PipelineResult result = cluster.run_blocks(batches);
  for (const RoundMetrics& m : result.rounds) {
    EXPECT_TRUE(m.vote_equivocators.empty()) << what << ": a server equivocated";
  }
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    EXPECT_FALSE(cluster.is_crashed(ServerId{i})) << what << ": S" << i << " still down";
  }
  return fingerprint(cluster, result);
}

// --- (iii) Crash-point matrix --------------------------------------------------

struct CrashPoint {
  const char* type;     ///< message type whose processing precedes the crash
  std::uint32_t server; ///< who dies (0 = the coordinator)
};

void run_matrix(Protocol protocol, const std::vector<CrashPoint>& points) {
  for (const std::uint32_t depth : {1u, 2u, 4u}) {
    const ClusterConfig cfg = recovery_config(protocol, depth);
    const auto batches = mint_batches(cfg, 3);
    const LedgerFingerprint base = run_commit(cfg, batches, "uncrashed");
    ASSERT_EQ(base.decisions.size(), 3u);
    EXPECT_EQ(base.decisions[0], ledger::Decision::kCommit);

    for (const CrashPoint& p : points) {
      ClusterConfig crashed = cfg;
      CrashFault cf;
      cf.server = p.server;
      cf.after_type = p.type;
      cf.after_count = 1;
      cf.downtime_us = 1500;
      crashed.crashes.push_back(cf);
      const std::string what = std::string(p.type) + "@S" + std::to_string(p.server) +
                               " depth=" + std::to_string(depth);
      EXPECT_TRUE(run_commit(crashed, batches, what.c_str()) == base)
          << "ledger diverged after crash at " << what;
    }
  }
}

TEST(CrashMatrix, TfCommitEveryTransition) {
  run_matrix(Protocol::kTfCommit, {
                                      {"tf_get_vote", 2},  // cohort dies after voting
                                      {"tf_vote", 0},      // coordinator dies collecting votes
                                      {"tf_challenge", 1}, // cohort dies after responding
                                      {"tf_response", 0},  // coordinator dies aggregating
                                      {"tf_decision", 2},  // cohort dies after applying
                                      {"tf_decision", 0},  // coordinator dies after applying
                                  });
}

TEST(CrashMatrix, TwoPhaseCommitEveryTransition) {
  run_matrix(Protocol::kTwoPhaseCommit, {
                                            {"2pc_prepare", 1},
                                            {"2pc_vote", 0},
                                            {"2pc_decision", 2},
                                            {"2pc_decision", 0},
                                        });
}

TEST(CrashMatrix, CheckpointEveryTransition) {
  const std::vector<CrashPoint> points = {
      {"cp_propose", 1},   // witness dies after committing
      {"cp_commit", 0},    // coordinator dies collecting commitments
      {"cp_challenge", 2}, // witness dies after responding
      {"cp_response", 0},  // coordinator dies aggregating
  };

  const ClusterConfig cfg = recovery_config(Protocol::kTfCommit, 1);
  const auto batches = mint_batches(cfg, 2);

  // Uncrashed reference: ledger after two rounds plus the formed checkpoint
  // (deterministic nonces: even the aggregate signature bits must match).
  auto run_cp = [&](std::vector<CrashFault> crashes, const char* what) {
    ClusterConfig c = cfg;
    c.crashes = std::move(crashes);
    Cluster cluster(c);
    cluster.make_client();
    const PipelineResult rounds = cluster.run_blocks(batches);
    const auto cp = cluster.create_checkpoint();
    EXPECT_TRUE(cp.has_value()) << what << ": checkpoint failed to form";
    for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
      EXPECT_FALSE(cluster.is_crashed(ServerId{i})) << what;
    }
    return std::pair(fingerprint(cluster, rounds), cp);
  };

  const auto [base_fp, base_cp] = run_cp({}, "uncrashed");
  ASSERT_TRUE(base_cp.has_value());

  for (const CrashPoint& p : points) {
    CrashFault cf;
    cf.server = p.server;
    cf.after_type = p.type;
    cf.after_count = 1;
    cf.downtime_us = 1500;
    const std::string what = std::string(p.type) + "@S" + std::to_string(p.server);
    const auto [fp, cp] = run_cp({cf}, what.c_str());
    EXPECT_TRUE(fp == base_fp) << "ledger diverged: " << what;
    ASSERT_TRUE(cp.has_value()) << what;
    EXPECT_EQ(cp->height, base_cp->height) << what;
    EXPECT_TRUE(cp->cosign == base_cp->cosign)
        << what << ": checkpoint co-sign bits diverged";
  }
}

// --- Speculative pipelining under crashes --------------------------------------

TEST(CrashMatrix, SpeculativeTfCommitEveryTransition) {
  // Same transition matrix with speculation on and the gated depth-1 ledger
  // as the reference: a crash in the middle of a speculative window —
  // buffered votes, pending overlays, in-flight re-votes — must recover to
  // the exact ledger the lock-step engine produces.
  const std::vector<CrashPoint> points = {
      {"tf_get_vote", 2},  // cohort dies after voting speculatively
      {"tf_vote", 0},      // coordinator dies on buffered votes
      {"tf_challenge", 1}, // cohort dies after responding
      {"tf_response", 0},  // coordinator dies aggregating
      {"tf_decision", 2},  // cohort dies after applying (pending stack live)
      {"tf_decision", 0},  // coordinator dies after applying
  };
  const ClusterConfig gated = recovery_config(Protocol::kTfCommit, 1);
  const auto batches = mint_batches(gated, 4);
  const LedgerFingerprint base = run_commit(gated, batches, "gated uncrashed");
  ASSERT_EQ(base.decisions.size(), 4u);

  for (const std::uint32_t depth : {2u, 4u, 8u}) {
    ClusterConfig spec = recovery_config(Protocol::kTfCommit, depth);
    spec.speculate = true;
    EXPECT_TRUE(run_commit(spec, batches, "speculative uncrashed") == base)
        << "speculative depth " << depth << " diverged before any crash";
    for (const CrashPoint& p : points) {
      ClusterConfig crashed = spec;
      CrashFault cf;
      cf.server = p.server;
      cf.after_type = p.type;
      cf.after_count = 1;
      cf.downtime_us = 1500;
      crashed.crashes.push_back(cf);
      const std::string what = std::string("spec ") + p.type + "@S" +
                               std::to_string(p.server) + " depth=" + std::to_string(depth);
      EXPECT_TRUE(run_commit(crashed, batches, what.c_str()) == base)
          << "ledger diverged after crash at " << what;
    }
  }
}

TEST(SpeculativeRecovery, NeverDoubleLogsAVotePerEpochAndBase) {
  // Abort-heavy cross-shard schedule (block 1 aborts on shard 1's veto, so
  // shard 0 mis-speculates block 2 and must re-vote) plus a crash while the
  // speculative window is live. The vote-once-per-(epoch, base) discipline
  // must hold in every durable round log — a re-vote is a *new* (epoch,
  // base) record, never a second record for an existing one.
  ClusterConfig cfg = recovery_config(Protocol::kTfCommit, 4);
  cfg.speculate = true;
  std::vector<std::vector<commit::SignedEndTxn>> batches;
  {
    Cluster mint(cfg);
    Client& client = mint.make_client();
    auto txn = [&](std::vector<ItemId> items, const std::string& tag) {
      ClientTxn t = client.begin();
      mint.client_begin(client, t.id(), items);
      for (const ItemId item : items) {
        client.read(t, item);
        client.write(t, item, to_bytes(tag + "-" + std::to_string(item)));
      }
      return client.end(std::move(t));
    };
    batches.push_back({txn({0, 1}, "x")});
    batches.push_back({txn({4, 1}, "y")});
    batches.push_back({txn({4}, "z")});
    batches.push_back({txn({2, 3}, "w")});
  }

  CrashFault cf;
  cf.server = 2;
  cf.after_type = "tf_get_vote";
  cf.after_count = 2;  // dies with several openings already speculated on
  cf.downtime_us = 1200;
  cfg.crashes.push_back(cf);

  Cluster cluster(cfg);
  cluster.make_client();
  const PipelineResult result = cluster.run_blocks(batches);
  ASSERT_EQ(result.rounds.size(), 4u);
  EXPECT_EQ(result.rounds[1].decision, ledger::Decision::kAbort);
  std::size_t revotes = 0;
  for (const RoundMetrics& m : result.rounds) {
    revotes += m.spec_revotes;
    EXPECT_TRUE(m.vote_equivocators.empty());
  }
  EXPECT_GT(revotes, 0u) << "schedule was meant to force a mis-speculation";

  bool saw_multiple_bases = false;
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    const auto records = cluster.server(ServerId{i}).round_log().replay();
    ASSERT_TRUE(records.has_value()) << "S" << i << " round log failed integrity";
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    std::map<std::uint64_t, std::set<std::uint64_t>> bases_per_epoch;
    for (const ledger::RoundRecord& rec : *records) {
      if (rec.type != ledger::RoundRecord::Type::kVote) continue;
      EXPECT_TRUE(seen.emplace(rec.epoch, rec.base).second)
          << "S" << i << " double-logged a vote for epoch " << rec.epoch
          << " base " << rec.base;
      bases_per_epoch[rec.epoch].insert(rec.base);
    }
    for (const auto& [epoch, bases] : bases_per_epoch) {
      if (bases.size() > 1) saw_multiple_bases = true;
    }
  }
  EXPECT_TRUE(saw_multiple_bases)
      << "expected at least one re-vote under a distinct base somewhere";
}

// --- Group commit (§4.6) under the crash-point matrix --------------------------

/// Group batches over 4 servers (item i lives on server i % 4; a group's
/// coordinator is its lowest member): S1 coordinates {1,2} twice, S3 is a
/// member of two groups and coordinates none, and {2,3} / {0,1} bridge
/// earlier groups so the stream carries cross-group dependencies.
std::vector<std::vector<commit::SignedEndTxn>> mint_group_batches(const ClusterConfig& cfg) {
  Cluster mint(cfg);
  Client& client = mint.make_client();
  auto txn = [&](std::vector<ItemId> items, const std::string& tag) {
    ClientTxn t = client.begin();
    for (const ItemId item : items) {
      client.read(t, item);
      client.write(t, item, to_bytes(tag + "-" + std::to_string(item)));
    }
    return client.end(std::move(t));
  };
  std::vector<std::vector<commit::SignedEndTxn>> batches;
  batches.push_back({txn({1, 2}, "a")});  // {1,2}, coordinator S1
  batches.push_back({txn({0, 3}, "b")});  // {0,3}, disjoint
  batches.push_back({txn({5, 6}, "c")});  // {1,2} again
  batches.push_back({txn({6, 7}, "d")});  // {2,3}: bridges both groups
  batches.push_back({txn({4, 9}, "e")});  // {0,1}: bridges both groups
  return batches;
}

struct GroupStreamFingerprint {
  std::vector<Bytes> blocks;  ///< serialized sequenced blocks, height order
  std::vector<std::vector<std::uint64_t>> deps;
  std::vector<crypto::Digest> head_hashes;   // per server
  std::vector<crypto::Digest> merkle_roots;  // per server
  std::vector<std::string> faults;           // per round

  friend bool operator==(const GroupStreamFingerprint&,
                         const GroupStreamFingerprint&) = default;
};

/// Runs the batches as group rounds over SimNet. Returns the stream
/// fingerprint and the schedule's trace hash (which folds every crash and
/// recovery, so it tells whether a configured crash point actually fired).
std::pair<GroupStreamFingerprint, crypto::Digest> run_group(
    ClusterConfig cfg, const std::vector<std::vector<commit::SignedEndTxn>>& batches,
    const std::string& what) {

  Cluster cluster(cfg);
  cluster.make_client();
  ordserv::Sequencer seq;
  const ordserv::GroupRunResult result = cluster.run_group_blocks(seq, batches);
  GroupStreamFingerprint fp;
  for (const ordserv::SequencedBlock& e : seq.stream()) {
    fp.blocks.push_back(e.block.serialize());
    fp.deps.push_back(e.depends_on);
  }
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    EXPECT_FALSE(cluster.is_crashed(ServerId{i})) << what << ": S" << i << " still down";
    EXPECT_FALSE(result.delivery_refusals[i].has_value()) << what << ": S" << i;
    const Server& s = cluster.server(ServerId{i});
    fp.head_hashes.push_back(s.log().head_hash());
    fp.merkle_roots.push_back(s.shard().merkle_root());
  }
  for (const ordserv::GroupRoundResult& r : result.rounds) {
    fp.faults.push_back(r.fault);
    EXPECT_TRUE(r.vote_equivocators.empty()) << what << ": a server equivocated";
  }
  return {fp, cluster.simnet()->trace_hash()};
}

TEST(CrashMatrix, GroupCommitEveryTransition) {
  // Transition-triggered crashes at a member that coordinates nothing (S3)
  // and at a group coordinator (S1): the restored server rebuilds its
  // cohort state from its round log and the replayed stream, a restored
  // coordinator restarts its rounds, and the sequenced stream must come out
  // bit-identical to the uncrashed run.
  const std::vector<CrashPoint> points = {
      {"tf_get_vote", 3},   // member dies after voting
      {"tf_get_vote", 1},   // coordinator dies after voting in its own round
      {"tf_vote", 1},       // coordinator dies collecting votes
      {"tf_challenge", 3},  // member dies after responding
      {"tf_challenge", 1},  // coordinator dies after responding
      {"tf_response", 1},   // coordinator dies aggregating
      {"gtf_seq", 3},       // member dies after applying a sequenced entry
      {"gtf_seq", 1},       // coordinator dies after applying one
  };
  ClusterConfig base_cfg = recovery_config(Protocol::kTfCommit, 1);
  const auto batches = mint_group_batches(base_cfg);
  const GroupStreamFingerprint base = run_group(base_cfg, batches, "uncrashed").first;
  ASSERT_EQ(base.blocks.size(), batches.size());

  for (const std::uint32_t depth : {1u, 4u}) {
    for (const bool spec : {false, true}) {
      ClusterConfig cfg = recovery_config(Protocol::kTfCommit, depth);
      cfg.speculate = spec;
      const std::string mode =
          " depth=" + std::to_string(depth) + (spec ? " spec" : "");
      const auto [uncrashed, uncrashed_trace] = run_group(cfg, batches, "uncrashed" + mode);
      EXPECT_TRUE(uncrashed == base) << "diverged before any crash:" << mode;
      for (const CrashPoint& p : points) {
        ClusterConfig crashed = cfg;
        CrashFault cf;
        cf.server = p.server;
        cf.after_type = p.type;
        cf.after_count = 1;
        cf.downtime_us = 1500;
        crashed.crashes.push_back(cf);
        const std::string what =
            std::string(p.type) + "@S" + std::to_string(p.server) + mode;
        const auto [fp, trace] = run_group(crashed, batches, what);
        EXPECT_TRUE(fp == base) << "stream diverged after crash at " << what;
        EXPECT_FALSE(trace == uncrashed_trace) << "crash point never fired: " << what;
      }
    }
  }
}

// --- (ii) Direct-mode crash/recover API ---------------------------------------

TEST(DirectRecovery, ServerRebuildsFromRoundLogBetweenRounds) {
  ClusterConfig cfg = recovery_config(Protocol::kTfCommit, 1);
  cfg.network.mode = sim::NetworkMode::kDirect;
  const auto batches = mint_batches(cfg, 3);

  // Reference: never-crashed run of all three blocks.
  Cluster ref(cfg);
  ref.make_client();
  ref.run_blocks(batches);

  // Crash S2 after two blocks, recover it from its round log, run block 3.
  Cluster cluster(cfg);
  cluster.make_client();
  cluster.run_blocks({batches[0], batches[1]});
  const auto head_before = cluster.server(ServerId{2}).log().head_hash();
  cluster.crash_server(ServerId{2});
  EXPECT_TRUE(cluster.is_crashed(ServerId{2}));
  ASSERT_TRUE(cluster.recover_server(ServerId{2}));
  EXPECT_FALSE(cluster.is_crashed(ServerId{2}));
  EXPECT_TRUE(cluster.server(ServerId{2}).log().head_hash() == head_before)
      << "restore did not rebuild the ledger from the round log";
  cluster.run_blocks({batches[2]});

  for (std::uint32_t i = 0; i < cfg.num_servers; ++i) {
    const Server& a = ref.server(ServerId{i});
    const Server& b = cluster.server(ServerId{i});
    EXPECT_EQ(a.log().size(), b.log().size());
    EXPECT_TRUE(a.log().head_hash() == b.log().head_hash()) << "S" << i;
    EXPECT_TRUE(a.shard().merkle_root() == b.shard().merkle_root()) << "S" << i;
  }
}

TEST(DirectRecovery, RoundsRefuseToRunWithAServerDown) {
  ClusterConfig cfg = recovery_config(Protocol::kTfCommit, 1);
  cfg.network.mode = sim::NetworkMode::kDirect;
  const auto batches = mint_batches(cfg, 1);
  Cluster cluster(cfg);
  cluster.make_client();
  cluster.crash_server(ServerId{1});
  EXPECT_THROW(cluster.run_blocks(batches), std::logic_error);
  ASSERT_TRUE(cluster.recover_server(ServerId{1}));
  EXPECT_EQ(cluster.run_blocks(batches).rounds.size(), 1u);
}

TEST(DirectRecovery, TamperedRoundLogRefusesToRestore) {
  // The equivocation lock: a server that crashes after sending its vote
  // re-sends the recorded bytes on restore — and if those bytes were
  // altered, the chained integrity check refuses the whole restore rather
  // than let the server re-vote differently.
  ClusterConfig cfg = recovery_config(Protocol::kTfCommit, 1);
  cfg.network.mode = sim::NetworkMode::kDirect;
  const auto batches = mint_batches(cfg, 2);
  Cluster cluster(cfg);
  cluster.make_client();
  cluster.run_blocks(batches);

  auto* log = dynamic_cast<ledger::MemRoundLog*>(&cluster.server(ServerId{1}).round_log());
  ASSERT_NE(log, nullptr);
  ASSERT_GT(log->size(), 0u);
  cluster.crash_server(ServerId{1});
  log->tamper(0, 20);  // flip a byte inside the first recorded vote
  EXPECT_FALSE(cluster.recover_server(ServerId{1}));
  EXPECT_TRUE(cluster.is_crashed(ServerId{1}));  // it must not rejoin
}

TEST(DirectRecovery, FileBackedRoundLogsRestoreTheLedger) {
  const std::string dir = ::testing::TempDir() + "fides_rlogs_" + std::to_string(::getpid());
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  ClusterConfig cfg = recovery_config(Protocol::kTfCommit, 1);
  cfg.network.mode = sim::NetworkMode::kDirect;
  cfg.round_log_dir = dir;
  const auto batches = mint_batches(cfg, 2);

  Cluster cluster(cfg);
  cluster.make_client();
  cluster.run_blocks(batches);
  const auto head = cluster.server(ServerId{3}).log().head_hash();
  cluster.crash_server(ServerId{3});
  ASSERT_TRUE(cluster.recover_server(ServerId{3}));
  EXPECT_TRUE(cluster.server(ServerId{3}).log().head_hash() == head);
  ASSERT_EQ(std::system(("rm -rf " + dir).c_str()), 0);
}

// --- (iv) Coordinator crash: 2PC blocks, TFCommit's cohorts make progress -----

TEST(CoordinatorCrash, TfCommitCohortsTerminateWhile2pcBlocks) {
  // Same crash schedule for both protocols: the coordinator dies right
  // after the first vote reaches it and stays down for a long time.
  const auto crash_plan = [] {
    CrashFault cf;
    cf.server = 0;
    cf.after_type = "";  // time-triggered
    cf.at_us = 150;
    cf.downtime_us = 60000;
    return cf;
  }();

  // TFCommit with the termination timer armed: the surviving cohorts drive
  // the round to a co-signed abort long before the coordinator returns —
  // the block's witness set is the survivors alone.
  {
    ClusterConfig cfg = recovery_config(Protocol::kTfCommit, 1);
    cfg.crashes.push_back(crash_plan);
    cfg.termination_timeout_us = 2000;
    const auto batches = mint_batches(cfg, 1);
    Cluster cluster(cfg);
    cluster.make_client();
    const PipelineResult result = cluster.run_blocks(batches);
    ASSERT_EQ(result.rounds.size(), 1u);
    EXPECT_TRUE(result.rounds[0].terminated_by_cohorts)
        << "cohorts failed to terminate around the dead coordinator";
    EXPECT_EQ(result.rounds[0].decision, ledger::Decision::kAbort);
    // Every server — including the recovered coordinator — holds the
    // termination block, co-signed by the survivors {1, 2, 3} alone.
    for (std::uint32_t i = 0; i < cfg.num_servers; ++i) {
      const Server& s = cluster.server(ServerId{i});
      ASSERT_EQ(s.log().size(), 1u) << "S" << i;
      const ledger::Block& block = s.log().at(0);
      EXPECT_EQ(block.decision, ledger::Decision::kAbort);
      EXPECT_EQ(block.signers,
                (std::vector<ServerId>{ServerId{1}, ServerId{2}, ServerId{3}}));
      ASSERT_TRUE(block.cosign.has_value());
      // Byte pin: the SHA-256 of the full block, co-sign included. Every
      // server holds the same bytes, and a refactor of the termination
      // leader must reproduce them exactly.
      EXPECT_EQ(block.digest().hex(),
                "9f4dfea880927ee0ca3fad39df7e3633243daa8663eeed99af6ddd1737d30931")
          << "S" << i;
    }
  }

  // 2PC under the identical schedule has no cohort-driven path: the round
  // blocks until the coordinator recovers, then completes exactly as an
  // uncrashed run would (commit — nothing was lost, just time).
  {
    ClusterConfig cfg = recovery_config(Protocol::kTwoPhaseCommit, 1);
    const auto batches = mint_batches(cfg, 1);
    const LedgerFingerprint base = run_commit(cfg, batches, "2pc uncrashed");
    ASSERT_EQ(base.decisions[0], ledger::Decision::kCommit);

    ClusterConfig crashed = cfg;
    crashed.crashes.push_back(crash_plan);
    crashed.termination_timeout_us = 2000;  // armed but useless for 2PC
    Cluster cluster(crashed);
    cluster.make_client();
    const PipelineResult result = cluster.run_blocks(batches);
    ASSERT_EQ(result.rounds.size(), 1u);
    EXPECT_FALSE(result.rounds[0].terminated_by_cohorts);
    EXPECT_EQ(result.rounds[0].decision, ledger::Decision::kCommit);
    EXPECT_TRUE(fingerprint(cluster, result) == base);
    // Blocking is visible in virtual time: the round could not finish
    // before the coordinator's recovery at t = 60150us.
    EXPECT_GE(cluster.simnet()->now_us(), crash_plan.at_us + crash_plan.downtime_us);
  }
}

// --- Crash composed with a per-link partition ----------------------------------

TEST(CrashAndPartition, RecoveryWorksAcrossAHealingPartition) {
  // S2 is partitioned away while S1 crashes and recovers: the catch-up
  // must tolerate both faults at once, and the final ledgers still agree.
  ClusterConfig cfg = recovery_config(Protocol::kTfCommit, 2);
  sim::Partition p;
  p.island = {2};
  p.start_us = 0;
  p.heal_us = 2500;
  cfg.network.sim.partitions.push_back(p);
  // Per-link profile: the path into S1 is slow and lossy even before it
  // crashes — the override applies to that link only.
  sim::LinkOverride slow;
  slow.src = 0;
  slow.dst = 1;
  slow.faults.min_delay_us = 200;
  slow.faults.max_delay_us = 900;
  slow.faults.drop_prob = 0.4;
  cfg.network.sim.link_overrides.push_back(slow);
  CrashFault cf;
  cf.server = 1;
  cf.at_us = 800;
  cf.downtime_us = 2000;
  cfg.crashes.push_back(cf);

  const auto batches = mint_batches(cfg, 3);
  const LedgerFingerprint fp = run_commit(cfg, batches, "crash+partition");
  // All four logs identical (run_commit checked liveness + equivocation).
  for (std::size_t i = 1; i < fp.head_hashes.size(); ++i) {
    EXPECT_TRUE(fp.head_hashes[i] == fp.head_hashes[0]) << "S" << i;
    EXPECT_EQ(fp.log_sizes[i], fp.log_sizes[0]);
  }
  EXPECT_EQ(fp.log_sizes[0], 3u);
}

}  // namespace
}  // namespace fides

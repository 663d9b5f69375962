// Auditor tests: every lemma and §5 scenario, end-to-end through the real
// cluster — honest runs audit clean; each injected fault is detected and
// attributed to the right server at the right block/version.
#include <gtest/gtest.h>

#include <functional>

#include "audit/auditor.hpp"
#include "workload/ycsb.hpp"

namespace fides::audit {
namespace {

ClusterConfig config(store::VersioningMode mode = store::VersioningMode::kMulti) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.items_per_shard = 32;
  cfg.versioning = mode;
  return cfg;
}

commit::SignedEndTxn rw_txn(Cluster& cluster, Client& client, std::vector<ItemId> items,
                            const std::string& tag) {
  ClientTxn txn = client.begin();
  cluster.client_begin(client, txn.id(), items);
  for (const ItemId item : items) {
    client.read(txn, item);
    client.write(txn, item, to_bytes(tag + "-" + std::to_string(item)));
  }
  return client.end(std::move(txn));
}

/// Runs `blocks` honest single-txn blocks over distinct items.
void run_honest_history(Cluster& cluster, Client& client, int blocks) {
  for (int i = 0; i < blocks; ++i) {
    const auto metrics = cluster.run_block(
        {rw_txn(cluster, client, {static_cast<ItemId>(i), static_cast<ItemId>(i + 10)},
                "b" + std::to_string(i))});
    ASSERT_EQ(metrics.decision, ledger::Decision::kCommit);
  }
}

TEST(Auditor, HonestRunAuditsClean) {
  Cluster cluster(config());
  Client& client = cluster.make_client();
  run_honest_history(cluster, client, 5);
  Auditor auditor(cluster);
  const AuditReport report = auditor.run();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.blocks_audited, 5u);
  EXPECT_GT(report.items_authenticated, 0u);
}

TEST(Auditor, HonestSingleVersionedRunAuditsClean) {
  Cluster cluster(config(store::VersioningMode::kSingle));
  Client& client = cluster.make_client();
  run_honest_history(cluster, client, 5);
  Auditor auditor(cluster);
  EXPECT_TRUE(auditor.run().clean());
}

TEST(Auditor, HonestWorkloadManySeedsClean) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    ClusterConfig cfg = config();
    cfg.seed = seed;
    Cluster cluster(cfg);
    Client& client = cluster.make_client();
    workload::YcsbWorkload wl({}, cfg.num_servers * cfg.items_per_shard, seed);
    for (int block = 0; block < 4; ++block) {
      std::vector<commit::SignedEndTxn> batch;
      for (int i = 0; i < 3; ++i) batch.push_back(wl.run_transaction(client));
      cluster.run_block(std::move(batch));
    }
    Auditor auditor(cluster);
    const auto report = auditor.run();
    EXPECT_TRUE(report.clean()) << "seed " << seed << "\n" << report.to_string();
  }
}

// --- Lemma 1 / Scenario 1: incorrect reads ---------------------------------------

TEST(Auditor, IncorrectReadDetectedAndAttributed) {
  Cluster cluster(config());
  Client& client = cluster.make_client();
  // Block 0 writes item 0 honestly; then the owner starts lying on reads.
  cluster.run_block({rw_txn(cluster, client, {0}, "honest")});
  Server& liar = cluster.server(cluster.owner_of(0));
  liar.faults().read_fault = ReadFault::kGarbageValue;
  liar.faults().read_fault_item = 0;
  // The lied-to transaction commits (the value content is not what OCC
  // checks — timestamps still match), embedding the wrong value in block 1.
  const auto metrics = cluster.run_block({rw_txn(cluster, client, {0}, "next")});
  ASSERT_EQ(metrics.decision, ledger::Decision::kCommit);

  Auditor auditor(cluster, {DatastorePolicy::kNone});
  const AuditReport report = auditor.run();
  ASSERT_TRUE(report.has(ViolationKind::kIncorrectRead)) << report.to_string();
  const auto v = report.of_kind(ViolationKind::kIncorrectRead);
  EXPECT_EQ(v[0].server, cluster.owner_of(0));
  EXPECT_EQ(v[0].block, 1u);  // precise point in history
}

// --- Lemma 2 / Scenario 3: datastore corruption ----------------------------------

TEST(Auditor, SkippedWriteDetectedAtPreciseVersion) {
  Cluster cluster(config());
  Client& client = cluster.make_client();
  Server& faulty = cluster.server(cluster.owner_of(0));
  faulty.faults().skip_write_item = 0;

  cluster.run_block({rw_txn(cluster, client, {0}, "expected")});
  cluster.run_block({rw_txn(cluster, client, {10}, "unrelated")});

  Auditor auditor(cluster);
  const AuditReport report = auditor.run();
  ASSERT_TRUE(report.has(ViolationKind::kDatastoreCorruption)) << report.to_string();
  const auto v = report.of_kind(ViolationKind::kDatastoreCorruption);
  EXPECT_EQ(v[0].server, cluster.owner_of(0));
  EXPECT_EQ(v[0].block, 0u);  // corruption entered at block 0's version
}

TEST(Auditor, PostCommitCorruptionDetectedMultiVersioned) {
  Cluster cluster(config());
  Client& client = cluster.make_client();
  cluster.run_block({rw_txn(cluster, client, {0}, "v1")});
  Server& faulty = cluster.server(cluster.owner_of(0));
  const Timestamp version = faulty.log().at(0).txns[0].commit_ts;
  faulty.shard().corrupt_value(0, to_bytes("evil"));
  faulty.shard().corrupt_version(0, version, to_bytes("evil"));

  Auditor auditor(cluster);
  const AuditReport report = auditor.run();
  EXPECT_TRUE(report.has(ViolationKind::kDatastoreCorruption)) << report.to_string();
}

TEST(Auditor, PostCommitCorruptionDetectedSingleVersioned) {
  Cluster cluster(config(store::VersioningMode::kSingle));
  Client& client = cluster.make_client();
  cluster.run_block({rw_txn(cluster, client, {0}, "v1")});
  cluster.server(cluster.owner_of(0)).shard().corrupt_value(0, to_bytes("evil"));

  Auditor auditor(cluster, {DatastorePolicy::kLatestOnly});
  const AuditReport report = auditor.run();
  ASSERT_TRUE(report.has(ViolationKind::kDatastoreCorruption)) << report.to_string();
  EXPECT_EQ(report.of_kind(ViolationKind::kDatastoreCorruption)[0].server,
            cluster.owner_of(0));
}

TEST(Auditor, Scenario3Walkthrough) {
  // The paper's §5 example: server claims to have updated x at ts-100 but
  // did not; the auditor folds the claimed value through the VO and the
  // computed root mismatches the co-signed one.
  Cluster cluster(config());
  Client& client = cluster.make_client();
  Server& sm = cluster.server(cluster.owner_of(0));
  sm.faults().skip_write_item = 0;
  cluster.run_block({rw_txn(cluster, client, {0}, "900")});

  const ledger::Block& block10 = sm.log().at(0);
  AuditReport report;
  Auditor auditor(cluster);
  const bool clean = auditor.authenticate_item(
      sm.id(), 0, Auditor::block_version(block10), block10,
      &block10.txns[0].rw.writes[0].new_value, report);
  EXPECT_FALSE(clean);
  EXPECT_TRUE(report.has(ViolationKind::kDatastoreCorruption));
}

/// Five blocks over items of all three servers, with one datastore fault on
/// S0 (item 0) and one on S2 (item 5), both items written more than once.
/// Item 12 of S0 is then corrupted in place, so a single-versioned audit
/// reports two items of one server and the pin holds their order too.
AuditReport datastore_fault_audit(store::VersioningMode mode, bool skip_write) {
  Cluster cluster(config(mode));
  Client& client = cluster.make_client();
  for (const ItemId victim : {ItemId{0}, ItemId{5}}) {
    FaultConfig& faults = cluster.server(cluster.owner_of(victim)).faults();
    (skip_write ? faults.skip_write_item : faults.corrupt_after_commit_item) = victim;
  }
  const std::vector<std::vector<ItemId>> blocks = {
      {0, 1, 5, 7, 9}, {3, 0, 4, 11, 14}, {6, 8, 5, 13, 20},
      {10, 12, 0, 2, 17}, {5, 15, 16, 18, 19}};
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto metrics =
        cluster.run_block({rw_txn(cluster, client, blocks[b], "b" + std::to_string(b))});
    EXPECT_EQ(metrics.decision, ledger::Decision::kCommit);
  }
  cluster.server(cluster.owner_of(12)).shard().corrupt_value(12, to_bytes("evil"));
  return Auditor(cluster).run();
}

TEST(Auditor, DatastoreFaultReportsArePinned) {
  // Byte pins: the SHA-256 of each full report, so the text and the order
  // of every datastore violation stay fixed across changes to how the
  // auditor fetches and checks verification objects.
  struct Case {
    const char* name;
    store::VersioningMode mode;
    bool skip_write;
    const char* want;
  };
  // The two fault kinds leave the same reports: a violation names the
  // item, not the value the server stored.
  const std::vector<Case> cases = {
      {"corrupt_after_commit, multi", store::VersioningMode::kMulti, false,
       "ab2d6f4dffe9cb62f2f781d45cc9f74533fbe70befe0a98c0bf9d4f443089a84"},
      {"corrupt_after_commit, single", store::VersioningMode::kSingle, false,
       "241be83565959eb9492bdce004f749e96a01415d677bfaef29cdde5e8825925b"},
      {"skip_write, multi", store::VersioningMode::kMulti, true,
       "ab2d6f4dffe9cb62f2f781d45cc9f74533fbe70befe0a98c0bf9d4f443089a84"},
      {"skip_write, single", store::VersioningMode::kSingle, true,
       "241be83565959eb9492bdce004f749e96a01415d677bfaef29cdde5e8825925b"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const AuditReport report = datastore_fault_audit(c.mode, c.skip_write);
    const std::string text = report.to_string();
    EXPECT_TRUE(report.has(ViolationKind::kDatastoreCorruption)) << text;
    EXPECT_EQ(crypto::sha256(to_bytes(text)).hex(), c.want) << text;
  }
}

// --- Lemma 3: serializability ------------------------------------------------------

TEST(Auditor, SerializabilityViolationDetected) {
  // Craft a log where a later block's transaction carries a commit
  // timestamp below the previous writer's (the colluding-servers case: OCC
  // was "skipped"). All servers sign it, so only the audit catches it.
  // Single-versioned store: a multi-versioned one would refuse the
  // out-of-order append outright.
  Cluster cluster(config(store::VersioningMode::kSingle));
  Client& client = cluster.make_client();
  cluster.run_block({rw_txn(cluster, client, {0}, "first")});

  // Second transaction: reads item 0's *current* state but claims an older
  // commit timestamp, violating RW timestamp order.
  ClientTxn txn = client.begin();
  client.read(txn, 0);
  client.write(txn, 0, to_bytes("second"));
  commit::SignedEndTxn req = client.end(std::move(txn));
  req.request.txn.commit_ts = Timestamp{1, 0};  // in the past
  req.signature = client.keypair().sign(req.request.serialize());

  // Servers would abort this; make them all colluding-permissive by
  // injecting the block through a coordinator that ignores votes.
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    cluster.server(ServerId{i}).faults().cohort.skip_root_check = true;
  }
  cluster.server(ServerId{0}).faults().coordinator.force_commit = true;
  cluster.run_block({req});

  Auditor auditor(cluster, {DatastorePolicy::kNone});
  const AuditReport report = auditor.run();
  EXPECT_TRUE(report.has(ViolationKind::kSerializabilityViolation))
      << report.to_string();
}

// --- Lemmas 6 & 7: log integrity ----------------------------------------------------

class LogFaultAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster = std::make_unique<Cluster>(config());
    client = &cluster->make_client();
    for (int i = 0; i < 4; ++i) {
      cluster->run_block({rw_txn(*cluster, *client, {static_cast<ItemId>(i)},
                                 "b" + std::to_string(i))});
    }
  }
  std::unique_ptr<Cluster> cluster;
  Client* client{};
};

TEST_F(LogFaultAuditTest, TamperedBlockAttributed) {
  Server& faulty = cluster->server(ServerId{1});
  ledger::Block bad = faulty.log().at(2);
  bad.txns[0].rw.writes[0].new_value = to_bytes("rewritten-history");
  faulty.log().tamper_block(2, bad);

  Auditor auditor(*cluster, {DatastorePolicy::kNone});
  const AuditReport report = auditor.run();
  const auto tampered = report.of_kind(ViolationKind::kInvalidCosign);
  ASSERT_FALSE(tampered.empty()) << report.to_string();
  EXPECT_EQ(tampered[0].server, ServerId{1});
  EXPECT_EQ(tampered[0].block, 2u);
  // The audit still proceeds on the correct log from another server.
  EXPECT_NE(report.adopted_log_source, ServerId{1});
  EXPECT_EQ(report.blocks_audited, 4u);
}

TEST_F(LogFaultAuditTest, ReorderedLogDetected) {
  cluster->server(ServerId{2}).log().reorder(1, 3);
  Auditor auditor(*cluster, {DatastorePolicy::kNone});
  const AuditReport report = auditor.run();
  bool attributed = false;
  for (const auto& v : report.violations) {
    attributed |= (v.kind == ViolationKind::kTamperedLog ||
                   v.kind == ViolationKind::kInvalidCosign) &&
                  v.server == ServerId{2};
  }
  EXPECT_TRUE(attributed) << report.to_string();
}

TEST_F(LogFaultAuditTest, TruncatedTailDetected) {
  cluster->server(ServerId{0}).log().truncate_tail(2);
  Auditor auditor(*cluster, {DatastorePolicy::kNone});
  const AuditReport report = auditor.run();
  const auto v = report.of_kind(ViolationKind::kIncompleteLog);
  ASSERT_EQ(v.size(), 1u) << report.to_string();
  EXPECT_EQ(v[0].server, ServerId{0});
  EXPECT_EQ(report.blocks_audited, 4u);  // adopted a complete log elsewhere
}

TEST_F(LogFaultAuditTest, MultipleFaultyLogsStillAudited) {
  // n-1 = 2 of 3 servers corrupt their logs; one correct server suffices.
  cluster->server(ServerId{0}).log().truncate_tail(1);
  ledger::Block bad = cluster->server(ServerId{1}).log().at(0);
  bad.decision = ledger::Decision::kAbort;
  cluster->server(ServerId{1}).log().tamper_block(0, bad);

  Auditor auditor(*cluster, {DatastorePolicy::kNone});
  const AuditReport report = auditor.run();
  EXPECT_EQ(report.adopted_log_source, ServerId{2});
  EXPECT_TRUE(report.has(ViolationKind::kIncompleteLog));
  EXPECT_TRUE(report.has(ViolationKind::kInvalidCosign) ||
              report.has(ViolationKind::kTamperedLog));
  EXPECT_EQ(report.blocks_audited, 4u);
}

TEST_F(LogFaultAuditTest, AllLogsInvalidReported) {
  for (std::uint32_t i = 0; i < cluster->num_servers(); ++i) {
    ledger::Block bad = cluster->server(ServerId{i}).log().at(0);
    bad.height = 42;
    cluster->server(ServerId{i}).log().tamper_block(0, bad);
  }
  Auditor auditor(*cluster, {DatastorePolicy::kNone});
  const AuditReport report = auditor.run();
  EXPECT_TRUE(report.has(ViolationKind::kNoValidLog));
  EXPECT_EQ(report.blocks_audited, 0u);
}

// --- Lemma 5: atomicity / divergent logs ---------------------------------------------

TEST_F(LogFaultAuditTest, DivergentBlockAppendedByColluderDetected) {
  // Lemma 5 Case 1 epilogue: a colluding victim appends the abort variant
  // b_a whose co-sign corresponds to b_c. Its log fails validation at
  // exactly that block.
  Server& colluder = cluster->server(ServerId{1});
  ledger::Block ba = colluder.log().at(3);
  ba.decision = ledger::Decision::kAbort;
  ba.roots.clear();  // abort variant: roots missing
  colluder.log().tamper_block(3, ba);

  Auditor auditor(*cluster, {DatastorePolicy::kNone});
  const AuditReport report = auditor.run();
  const auto bad = report.of_kind(ViolationKind::kInvalidCosign);
  ASSERT_FALSE(bad.empty()) << report.to_string();
  EXPECT_EQ(bad[0].server, ServerId{1});
  EXPECT_EQ(bad[0].block, 3u);
}

// --- Differential: memoized log selection vs the per-log reference -----------------

/// Every server's public key, by id, read back out of the cluster's registry.
std::vector<crypto::PublicKey> server_public_keys(const Cluster& cluster) {
  std::vector<crypto::PublicKey> keys;
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    keys.push_back(cluster.server_keys().server(ServerId{i})->key());
  }
  return keys;
}

/// Reference oracle for validate_chain: no memo, no shared helper, no key
/// registry — every block of the log serialized, hashed and co-sign-verified
/// on its own against the keys of its signers, each named at most once.
ledger::ChainCheckResult reference_validate(std::span<const ledger::Block> blocks,
                                            std::span<const crypto::PublicKey> server_keys) {
  ledger::ChainCheckResult res;
  crypto::Digest expected_prev = crypto::Digest::zero();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const ledger::Block& b = blocks[i];
    if (b.height != i) {
      res.issues.push_back({i, "height " + std::to_string(b.height) +
                                   " does not match position " + std::to_string(i)});
    }
    if (!(b.prev_hash == expected_prev)) {
      res.issues.push_back({i, "broken hash pointer: prev_hash does not match "
                               "the digest of the preceding block"});
    }
    if (!b.cosign) {
      res.issues.push_back({i, "missing collective signature"});
    } else {
      std::vector<crypto::PublicKey> keys;
      keys.reserve(b.signers.size());
      bool signers_ok = !b.signers.empty();
      std::vector<bool> named(server_keys.size(), false);
      for (const ServerId s : b.signers) {
        if (s.value >= server_keys.size() || named[s.value]) {
          signers_ok = false;
          break;
        }
        named[s.value] = true;
        keys.push_back(server_keys[s.value]);
      }
      if (!signers_ok) {
        res.issues.push_back({i, "block declares an invalid signer set"});
      } else if (!crypto::cosi_verify(b.signing_bytes(), *b.cosign, keys)) {
        res.issues.push_back({i, "collective signature does not verify against "
                                 "the block contents"});
      }
    }
    expected_prev = b.digest();
    res.digests.push_back(expected_prev);
  }
  res.ok = res.issues.empty();
  return res;
}

struct ReferenceAudit {
  ledger::LogSelection selection;
  AuditReport report;
};

/// Reference oracle for Auditor::run() with the exhaustive policy: copy
/// every log, validate each on its own, validate the invalid ones again for
/// attribution, recompute digests for the cross-check, then replay and
/// authenticate a copy of the adopted log.
ReferenceAudit reference_audit(Cluster& cluster) {
  const auto keys = server_public_keys(cluster);
  std::vector<std::vector<ledger::Block>> logs;
  logs.reserve(cluster.num_servers());
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    logs.push_back(cluster.server(ServerId{i}).audit_log());
  }
  ReferenceAudit ref;
  ledger::LogSelection& sel = ref.selection;
  std::vector<bool> valid(logs.size());
  for (std::size_t i = 0; i < logs.size(); ++i) {
    valid[i] = reference_validate(logs[i], keys).ok;
    if (!valid[i]) sel.invalid.push_back(i);
  }
  std::size_t best_len = 0;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    if (valid[i] && logs[i].size() >= best_len) {
      if (!sel.chosen || logs[i].size() > best_len) sel.chosen = i;
      best_len = std::max(best_len, logs[i].size());
    }
  }
  if (sel.chosen) {
    for (std::size_t i = 0; i < logs.size(); ++i) {
      if (valid[i] && logs[i].size() < best_len) sel.incomplete.push_back(i);
    }
  }

  AuditReport& report = ref.report;
  for (const std::size_t bad : sel.invalid) {
    const auto check = reference_validate(logs[bad], keys);
    for (const auto& issue : check.issues) {
      const bool cosign_issue = issue.what.find("signature") != std::string::npos;
      report.violations.push_back(Violation{
          cosign_issue ? ViolationKind::kInvalidCosign : ViolationKind::kTamperedLog,
          ServerId{static_cast<std::uint32_t>(bad)}, issue.block_index, std::nullopt,
          issue.what});
    }
  }
  for (const std::size_t shorty : sel.incomplete) {
    report.violations.push_back(
        Violation{ViolationKind::kIncompleteLog,
                  ServerId{static_cast<std::uint32_t>(shorty)}, logs[shorty].size(),
                  std::nullopt,
                  "log omits the tail: " + std::to_string(logs[shorty].size()) +
                      " blocks vs " + std::to_string(logs[*sel.chosen].size()) +
                      " in the adopted log"});
  }
  if (!sel.chosen) {
    report.violations.push_back(
        Violation{ViolationKind::kNoValidLog, std::nullopt, std::nullopt, std::nullopt,
                  "every collected log fails validation; the >=1-correct-server "
                  "assumption does not hold"});
    return ref;
  }
  const auto& adopted = logs[*sel.chosen];
  for (std::size_t i = 0; i < logs.size(); ++i) {
    if (i == *sel.chosen || !valid[i]) continue;
    const std::size_t common = std::min(adopted.size(), logs[i].size());
    for (std::size_t b = 0; b < common; ++b) {
      if (!(adopted[b].digest() == logs[i][b].digest())) {
        report.violations.push_back(Violation{
            ViolationKind::kAtomicityViolation, ServerId{static_cast<std::uint32_t>(i)},
            b, std::nullopt, "valid logs diverge: different blocks at the same height"});
        break;
      }
    }
  }
  report.adopted_log_source = ServerId{static_cast<std::uint32_t>(*sel.chosen)};
  report.blocks_audited = adopted.size();

  const std::vector<ledger::Block> copy = adopted;
  Auditor auditor(cluster);
  auditor.check_history(copy, report);
  auditor.check_datastores(copy, report);
  return ref;
}

std::vector<std::pair<std::size_t, std::string>> issue_list(
    const ledger::ChainCheckResult& check) {
  std::vector<std::pair<std::size_t, std::string>> out;
  out.reserve(check.issues.size());
  for (const auto& issue : check.issues) out.emplace_back(issue.block_index, issue.what);
  return out;
}

/// Replaces block `height` of `server`'s log with an edited copy.
void tamper(Cluster& cluster, std::uint32_t server, std::size_t height,
            const std::function<void(ledger::Block&)>& edit) {
  ledger::TamperProofLog& log = cluster.server(ServerId{server}).log();
  ledger::Block b = log.at(height);
  edit(b);
  log.tamper_block(height, b);
}

struct Corruption {
  std::string name;
  std::function<void(Cluster&)> apply;
};

TEST(AuditDifferential, MemoizedSelectionMatchesPerLogReference) {
  const std::vector<Corruption> cases = {
      {"honest", [](Cluster&) {}},
      {"txn value",
       [](Cluster& c) {
         tamper(c, 1, 2, [](ledger::Block& b) {
           b.txns[0].rw.writes[0].new_value = to_bytes("evil");
         });
       }},
      {"commit_ts",
       [](Cluster& c) {
         tamper(c, 2, 1, [](ledger::Block& b) { b.txns[0].commit_ts = Timestamp{999, 9}; });
       }},
      {"cosign.r",
       [](Cluster& c) { tamper(c, 1, 3, [](ledger::Block& b) { b.cosign->r.w[0] ^= 1; }); }},
      {"signer dropped",
       [](Cluster& c) { tamper(c, 3, 2, [](ledger::Block& b) { b.signers.pop_back(); }); }},
      {"unknown signer",
       [](Cluster& c) {
         tamper(c, 0, 2, [](ledger::Block& b) { b.signers[0] = ServerId{42}; });
       }},
      {"root",
       [](Cluster& c) {
         tamper(c, 2, 3, [](ledger::Block& b) {
           b.roots[0].root = crypto::sha256(to_bytes("forged-root"));
         });
       }},
      {"prev_hash",
       [](Cluster& c) {
         tamper(c, 1, 2, [](ledger::Block& b) {
           b.prev_hash = crypto::sha256(to_bytes("forged-link"));
         });
       }},
      {"height",
       [](Cluster& c) { tamper(c, 3, 1, [](ledger::Block& b) { b.height = 7; }); }},
      {"reorder", [](Cluster& c) { c.server(ServerId{2}).log().reorder(1, 3); }},
      {"truncation", [](Cluster& c) { c.server(ServerId{0}).log().truncate_tail(3); }},
      {"forged co-sign on an otherwise identical block",
       [](Cluster& c) {
         // Block 3's genuine co-sign, replayed onto block 2.
         const auto replayed = c.server(ServerId{1}).log().at(3).cosign;
         tamper(c, 1, 2, [&](ledger::Block& b) { b.cosign = replayed; });
       }},
      {"one tampered copy on two servers",
       [](Cluster& c) {
         for (const std::uint32_t s : {0u, 2u}) {
           tamper(c, s, 1, [](ledger::Block& b) {
             b.txns[0].rw.writes[0].new_value = to_bytes("shared-lie");
           });
         }
       }},
      {"block at two heights",
       [](Cluster& c) {
         ledger::TamperProofLog& log = c.server(ServerId{1}).log();
         log.tamper_block(3, log.at(2));
       }},
      {"fabricated extension",
       [](Cluster& c) {
         ledger::TamperProofLog& log = c.server(ServerId{3}).log();
         ledger::Block fake = log.at(log.size() - 1);
         fake.height = log.size();
         fake.prev_hash = log.head_hash();
         log.append(fake);
       }},
      {"every log tampered",
       [](Cluster& c) {
         for (std::uint32_t s = 0; s < c.num_servers(); ++s) {
           tamper(c, s, 0, [](ledger::Block& b) { b.height = 42; });
         }
       }},
  };

  for (const Corruption& corruption : cases) {
    SCOPED_TRACE(corruption.name);
    ClusterConfig cfg = config();
    cfg.num_servers = 4;
    Cluster cluster(cfg);
    Client& client = cluster.make_client();
    run_honest_history(cluster, client, 5);
    corruption.apply(cluster);

    const ReferenceAudit want = reference_audit(cluster);
    std::vector<std::span<const ledger::Block>> logs;
    logs.reserve(cluster.num_servers());
    for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
      logs.emplace_back(cluster.server(ServerId{i}).audit_log());
    }
    const ledger::LogSelection got = ledger::select_correct_log(logs, cluster.server_keys());
    EXPECT_EQ(got.chosen, want.selection.chosen);
    EXPECT_EQ(got.invalid, want.selection.invalid);
    EXPECT_EQ(got.incomplete, want.selection.incomplete);
    EXPECT_EQ(got.checks.size(), logs.size());
    for (std::size_t i = 0; i < std::min(got.checks.size(), logs.size()); ++i) {
      const auto ref = reference_validate(logs[i], server_public_keys(cluster));
      EXPECT_EQ(got.checks[i].ok, ref.ok) << "log " << i;
      EXPECT_EQ(got.checks[i].digests, ref.digests) << "log " << i;
      EXPECT_EQ(issue_list(got.checks[i]), issue_list(ref)) << "log " << i;
    }

    const AuditReport report = Auditor(cluster).run();
    EXPECT_EQ(report.to_string(), want.report.to_string());
    EXPECT_EQ(report.adopted_log_source, want.report.adopted_log_source);
    EXPECT_EQ(report.blocks_audited, want.report.blocks_audited);
    EXPECT_EQ(report.items_authenticated, want.report.items_authenticated);
    EXPECT_EQ(report.clean(), corruption.name == "honest") << report.to_string();
  }
}

// --- Serialization-graph unit coverage ----------------------------------------------

TEST(SerializationGraph, BuildsConflictEdges) {
  std::vector<ledger::Block> log(2);
  for (auto& b : log) b.decision = ledger::Decision::kCommit;
  txn::Transaction t1;
  t1.commit_ts = Timestamp{1, 0};
  t1.rw.writes.push_back(txn::WriteEntry{7, to_bytes("a"), std::nullopt, {}, {}});
  txn::Transaction t2;
  t2.commit_ts = Timestamp{2, 0};
  t2.rw.reads.push_back(txn::ReadEntry{7, to_bytes("a"), {}, Timestamp{1, 0}});
  t2.rw.writes.push_back(txn::WriteEntry{7, to_bytes("b"), std::nullopt, {}, {}});
  log[0].txns.push_back(t1);
  log[1].height = 1;
  log[1].txns.push_back(t2);

  const auto g = SerializationGraph::build(log);
  EXPECT_EQ(g.nodes().size(), 2u);
  EXPECT_FALSE(g.edges().empty());
  EXPECT_FALSE(g.has_cycle());
  EXPECT_TRUE(g.timestamp_order_violations(log).empty());
}

TEST(SerializationGraph, TimestampOrderViolationFlagged) {
  std::vector<ledger::Block> log(2);
  for (auto& b : log) b.decision = ledger::Decision::kCommit;
  txn::Transaction t1;
  t1.commit_ts = Timestamp{5, 0};
  t1.rw.writes.push_back(txn::WriteEntry{7, to_bytes("a"), std::nullopt, {}, {}});
  txn::Transaction t2;
  t2.commit_ts = Timestamp{2, 0};  // commits "later" in the log, earlier in ts
  t2.rw.writes.push_back(txn::WriteEntry{7, to_bytes("b"), std::nullopt, {}, {}});
  log[0].txns.push_back(t1);
  log[1].height = 1;
  log[1].txns.push_back(t2);

  const auto g = SerializationGraph::build(log);
  EXPECT_FALSE(g.timestamp_order_violations(log).empty());
}

TEST(SerializationGraph, AbortedBlocksExcluded) {
  std::vector<ledger::Block> log(1);
  log[0].decision = ledger::Decision::kAbort;
  txn::Transaction t;
  t.rw.writes.push_back(txn::WriteEntry{1, to_bytes("x"), std::nullopt, {}, {}});
  log[0].txns.push_back(t);
  EXPECT_TRUE(SerializationGraph::build(log).nodes().empty());
}

TEST(Report, PrintingAndQueries) {
  AuditReport report;
  EXPECT_TRUE(report.clean());
  report.violations.push_back(Violation{ViolationKind::kIncorrectRead, ServerId{2},
                                        std::size_t{4}, Timestamp{9, 0}, "detail"});
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.has(ViolationKind::kIncorrectRead));
  EXPECT_FALSE(report.has(ViolationKind::kTamperedLog));
  const std::string s = report.to_string();
  EXPECT_NE(s.find("incorrect-read"), std::string::npos);
  EXPECT_NE(s.find("S2"), std::string::npos);
}

}  // namespace
}  // namespace fides::audit

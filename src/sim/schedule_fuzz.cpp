#include "sim/schedule_fuzz.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "audit/auditor.hpp"
#include "common/rng.hpp"
#include "ordserv/group_engine.hpp"
#include "sim/simnet.hpp"
#include "workload/ycsb.hpp"

namespace fides::sim {

namespace {

/// The Byzantine deviation menu, one layer at a time — each entry maps to a
/// lemma or §5 scenario and to the evidence the harness demands.
enum class Fault : std::uint8_t {
  kNone,
  kReadGarbage,         // Lemma 1 / Scenario 1
  kReadStale,           // Lemma 1 / Figure 10
  kSkipWrite,           // Lemma 2 / Scenario 3
  kCorruptAfterCommit,  // Lemma 2
  kCorruptCommitment,   // Lemma 4
  kCorruptResponse,     // Lemma 4
  kVoteAbort,           // griefing veto (legal but visible: nothing commits)
  kEquivSame,           // Lemma 5 case 1
  kEquivMatching,       // Lemma 5 case 2
  kFakeRoot,            // Scenario 2
  kForceCommit,         // atomicity attack (Lemma 5)
  kTamperLog,           // Lemma 6
  kTruncateLog,         // Lemma 7
  kCount_,
};

const char* fault_name(Fault f) {
  switch (f) {
    case Fault::kNone: return "none";
    case Fault::kReadGarbage: return "read-garbage";
    case Fault::kReadStale: return "read-stale";
    case Fault::kSkipWrite: return "skip-write";
    case Fault::kCorruptAfterCommit: return "corrupt-after-commit";
    case Fault::kCorruptCommitment: return "corrupt-sch-commitment";
    case Fault::kCorruptResponse: return "corrupt-sch-response";
    case Fault::kVoteAbort: return "always-vote-abort";
    case Fault::kEquivSame: return "equivocate-same-challenge";
    case Fault::kEquivMatching: return "equivocate-matching-challenges";
    case Fault::kFakeRoot: return "fake-root";
    case Fault::kForceCommit: return "force-commit";
    case Fault::kTamperLog: return "tamper-log";
    case Fault::kTruncateLog: return "truncate-log";
    case Fault::kCount_: break;
  }
  return "?";
}

bool is_coordinator_fault(Fault f) {
  return f == Fault::kEquivSame || f == Fault::kEquivMatching ||
         f == Fault::kFakeRoot || f == Fault::kForceCommit;
}

/// Faults whose evidence the auditor produces (as opposed to in-round
/// metrics). These leave a committed history behind, so the audit has
/// blocks to replay.
bool is_audit_fault(Fault f) {
  return f == Fault::kReadGarbage || f == Fault::kReadStale ||
         f == Fault::kSkipWrite || f == Fault::kCorruptAfterCommit ||
         f == Fault::kTamperLog || f == Fault::kTruncateLog;
}

commit::SignedEndTxn scripted_txn(Cluster& cluster, Client& client,
                                  const std::vector<ItemId>& items,
                                  const std::string& tag) {
  ClientTxn txn = client.begin();
  cluster.client_begin(client, txn.id(), items);
  for (const ItemId item : items) {
    client.read(txn, item);
    client.write(txn, item, to_bytes(tag + "-" + std::to_string(item)));
  }
  return client.end(std::move(txn));
}

struct Scenario {
  ClusterConfig cfg;
  Fault fault{Fault::kNone};
  std::uint32_t culprit{0};
  bool crash{false};
  std::uint32_t crash_victim{0};
  /// §4.6 group-mode dimension: the scripted history runs as group-local
  /// TFCommit rounds through the engine-routed multi-coordinator dispatch
  /// (ordserv::run_group_rounds) and an OrdServ stream, instead of global
  /// pipelined rounds.
  bool group{false};
  std::string description;
};

Scenario derive_scenario(std::uint64_t seed, const FuzzOptions& options) {
  const bool force_pipeline = options.force_pipeline;
  // Independent stream from SimNet's (which gets its own derived seed), so
  // scenario shape and schedule don't alias.
  Rng rng(seed ^ 0x51AF'F00D'5EED'F00DULL);
  Scenario s;

  ClusterConfig& cfg = s.cfg;
  cfg.num_servers = 3 + static_cast<std::uint32_t>(rng.uniform(4));  // 3..6
  cfg.items_per_shard = 24;
  cfg.max_batch_size = 8;
  cfg.num_threads = 1 + static_cast<std::uint32_t>(rng.uniform(2));
  // A fraction of seeds run the noise phase with blocks in flight; the
  // safety oracles are depth-oblivious, so pipelining must change nothing
  // they can see.
  cfg.pipeline_depth = 1 + static_cast<std::uint32_t>(rng.uniform(4));  // 1..4
  if (rng.uniform01() < 0.55 && !force_pipeline) cfg.pipeline_depth = 1;
  if (force_pipeline && cfg.pipeline_depth == 1) cfg.pipeline_depth = 2;
  cfg.seed = seed;
  // Batched (RLC-aggregate) signature opens on half the seeds. Derived from
  // seed parity rather than an rng draw so the existing draw stream — and
  // therefore every previously minimized repro seed — keeps its shape. The
  // detection oracles below are blind to this flag: attribution of
  // bad-signature faults must stay at 100% either way.
  cfg.batch_verify = (seed & 1) != 0;
  cfg.versioning = rng.uniform(2) == 0 ? store::VersioningMode::kSingle
                                       : store::VersioningMode::kMulti;
  cfg.network.mode = NetworkMode::kSimulated;

  SimNetConfig& net = cfg.network.sim;
  net.seed = seed * 0x9E37'79B9'7F4A'7C15ULL + 0xD1B5'4A32'D192'ED03ULL;
  net.link.min_delay_us = 10 + rng.uniform01() * 90;
  net.link.max_delay_us = net.link.min_delay_us + rng.uniform01() * 600;
  net.link.drop_prob = rng.uniform01() < 0.5 ? rng.uniform01() * 0.3 : 0.0;
  net.link.dup_prob = rng.uniform01() < 0.5 ? rng.uniform01() * 0.25 : 0.0;
  net.link.reorder_prob = rng.uniform01() < 0.5 ? rng.uniform01() * 0.5 : 0.0;
  net.link.reorder_extra_us = 200 + rng.uniform01() * 2000;
  bool partitioned = false;
  if (rng.uniform01() < 0.35) {
    Partition p;
    p.start_us = rng.uniform01() * 1500;
    p.heal_us = p.start_us + 200 + rng.uniform01() * 3000;
    for (std::uint32_t i = 0; i < cfg.num_servers; ++i) {
      if (rng.uniform(2) == 0) p.island.push_back(i);
    }
    if (p.island.empty()) p.island.push_back(static_cast<std::uint32_t>(
        rng.uniform(cfg.num_servers)));
    if (p.island.size() == cfg.num_servers) p.island.pop_back();
    net.partitions.push_back(std::move(p));
    partitioned = true;
  }

  const bool use_2pc = rng.uniform(5) == 0;
  cfg.protocol = use_2pc ? Protocol::kTwoPhaseCommit : Protocol::kTfCommit;

  // Speculative voting is a fuzzed dimension of its own (TFCommit only):
  // about half the seeds run with the opening gate dropped and pipeline
  // depth pushed to 1..8 — composed with every network fault, Byzantine
  // deviation, and crash cycle below.
  const bool draw_spec = rng.uniform(2) == 0;
  if (!use_2pc && (draw_spec || options.force_speculation)) {
    cfg.speculate = true;
    cfg.pipeline_depth = 1 + static_cast<std::uint32_t>(rng.uniform(8));  // 1..8
    if (options.force_speculation && cfg.pipeline_depth == 1) cfg.pipeline_depth = 2;
  }

  // Group-mode dimension (§4.6): a quarter of the TFCommit seeds run their
  // scripted history as group-local rounds through the engine-routed
  // multi-coordinator dispatch. Derived from seed bits, not an rng draw, so
  // the existing draw stream — and every minimized repro seed — keeps its
  // shape.
  s.group = !use_2pc && ((seed >> 1) & 3) == 3;

  // Byzantine deviations exist in the TFCommit stack only; 2PC schedules
  // fuzz the network dimension alone.
  if (!use_2pc && rng.uniform01() < 0.65) {
    s.fault = static_cast<Fault>(
        1 + rng.uniform(static_cast<std::uint64_t>(Fault::kCount_) - 1));
  }
  if (s.group && s.fault != Fault::kNone && s.fault != Fault::kCorruptCommitment &&
      s.fault != Fault::kCorruptResponse && s.fault != Fault::kVoteAbort) {
    // Group rounds exercise the cohort-layer menu: the coordinator faults are
    // per-round volatile state the multi-coordinator dispatch does not model,
    // and log faults would tamper a stream the delivery validator owns. Remap
    // deterministically so the group dimension still sees every cohort fault.
    static constexpr Fault kGroupMenu[] = {Fault::kCorruptCommitment,
                                           Fault::kCorruptResponse, Fault::kVoteAbort};
    s.fault = kGroupMenu[static_cast<std::uint8_t>(s.fault) % 3];
  }
  // Faults that rely on version history need the multi-versioned store.
  if (s.fault == Fault::kReadStale || s.fault == Fault::kCorruptAfterCommit) {
    cfg.versioning = store::VersioningMode::kMulti;
  }
  s.culprit = is_coordinator_fault(s.fault)
                  ? 0
                  : static_cast<std::uint32_t>(rng.uniform(cfg.num_servers));

  // Crash/recover cycle (--crash): one server dies at a drawn virtual time
  // and restores from its durable round log after a drawn downtime. The
  // cycle composes with the scenario's network faults and (non-colliding)
  // Byzantine deviation; Byzantine victims are avoided because a crash
  // would *heal* a corrupted store or tampered log and the detection
  // oracles would then rightly complain about missing evidence.
  double term_timeout = 0;
  if (options.with_crash) {
    s.crash = true;
    s.crash_victim = static_cast<std::uint32_t>(rng.uniform(cfg.num_servers));
    if (s.fault != Fault::kNone && s.crash_victim == s.culprit) {
      s.crash_victim = (s.crash_victim + 1) % cfg.num_servers;
    }
    CrashFault cf;
    cf.server = s.crash_victim;
    cf.at_us = 50 + rng.uniform01() * 2500;
    cf.downtime_us = 500 + rng.uniform01() * 5000;
    if (s.crash_victim == 0 && !use_2pc && !s.group && s.fault == Fault::kNone &&
        rng.uniform(2) == 0) {
      // (Group-mode rounds restart a dead coordinator deterministically
      // instead of arming cohort-driven termination, so the timeout knob
      // stays off for group seeds.)
      // Coordinator death: half the fault-free seeds arm cohort-driven
      // termination (fires iff the coordinator is still down when the probe
      // pops). Byzantine scenarios keep the pure restart path: termination
      // aborts the scripted rounds, and an aborted history carries no
      // committed evidence for the detection oracles to find.
      term_timeout = 300 + rng.uniform01() * 0.8 * cf.downtime_us;
      cfg.termination_timeout_us = term_timeout;
    }
    cfg.crashes.push_back(cf);
  }

  std::ostringstream d;
  d << (use_2pc ? "2pc" : s.group ? "tfcommit-group" : "tfcommit")
    << " n=" << cfg.num_servers
    << " threads=" << cfg.num_threads << " pipe=" << cfg.pipeline_depth
    << (cfg.speculate ? " spec" : "") << (cfg.batch_verify ? " bv" : "")
    << " drop=" << net.link.drop_prob
    << " dup=" << net.link.dup_prob << " reorder=" << net.link.reorder_prob
    << (partitioned ? " partition" : "") << " fault=" << fault_name(s.fault);
  if (s.fault != Fault::kNone) d << "@S" << s.culprit;
  if (s.crash) {
    d << " crash@S" << s.crash_victim << "(t=" << cfg.crashes[0].at_us
      << ",down=" << cfg.crashes[0].downtime_us << ")";
    if (term_timeout > 0) d << " term=" << term_timeout;
  }
  s.description = d.str();
  return s;
}

/// First item owned by server `owner`.
ItemId item_owned_by(const Cluster& cluster, std::uint32_t owner) {
  const std::uint64_t total =
      static_cast<std::uint64_t>(cluster.num_servers()) *
      cluster.config().items_per_shard;
  for (ItemId item = 0; item < total; ++item) {
    if (cluster.owner_of(item).value == owner) return item;
  }
  return 0;
}

void fold(crypto::Digest& acc, BytesView data) {
  Writer w;
  w.raw(acc.view());
  w.bytes(data);
  acc = crypto::sha256(w.data());
}

/// Runs the scenario on `cluster` and checks the invariants, filling `out`
/// as it goes.
void execute(std::uint64_t seed, const Scenario& scenario, Cluster& cluster,
             FuzzOutcome& out) {
  out.scenario = scenario.description;
  out.byzantine = scenario.fault != Fault::kNone;
  out.crashed = scenario.crash;
  out.speculative = scenario.cfg.speculate;
  const Fault fault = scenario.fault;
  const bool use_2pc = scenario.cfg.protocol == Protocol::kTwoPhaseCommit;
  const std::uint32_t n = scenario.cfg.num_servers;
  const std::uint32_t culprit = scenario.culprit;

  Client& client = cluster.make_client();
  Rng rng(seed ^ 0xF022'CE55'0000'0001ULL);  // history-shape choices

  auto fail = [&](const std::string& why) {
    if (out.ok) {
      out.ok = false;
      out.failure = why;
    }
  };

  // Items the scripted history targets: A on the culprit's shard, B on the
  // next server's — so the deviation is guaranteed to be exercised.
  const ItemId item_a = item_owned_by(cluster, culprit);
  const ItemId item_b = item_owned_by(cluster, (culprit + 1) % n);
  std::optional<ServerId> fake_root_victim;

  // --- Install the pre-run deviation -----------------------------------------
  Server& culprit_server = cluster.server(ServerId{culprit});
  switch (fault) {
    case Fault::kReadGarbage:
      culprit_server.faults().read_fault = ReadFault::kGarbageValue;
      break;
    case Fault::kReadStale:
      culprit_server.faults().read_fault = ReadFault::kStaleValue;
      break;
    case Fault::kSkipWrite:
      culprit_server.faults().skip_write_item = item_a;
      break;
    case Fault::kCorruptAfterCommit:
      culprit_server.faults().corrupt_after_commit_item = item_a;
      break;
    case Fault::kCorruptCommitment:
      culprit_server.faults().cohort.corrupt_sch_commitment = true;
      break;
    case Fault::kCorruptResponse:
      culprit_server.faults().cohort.corrupt_sch_response = true;
      break;
    case Fault::kVoteAbort:
      culprit_server.faults().cohort.always_vote_abort = true;
      break;
    case Fault::kEquivSame:
    case Fault::kEquivMatching: {
      auto& cf = culprit_server.faults().coordinator;
      cf.equivocate = fault == Fault::kEquivSame
                          ? commit::CoordinatorFaults::Equivocation::kSameChallenge
                          : commit::CoordinatorFaults::Equivocation::kMatchingChallenges;
      cf.equivocation_victims = {static_cast<std::size_t>(1 + rng.uniform(n - 1))};
      break;
    }
    case Fault::kFakeRoot:
      // Forge the root of an involved non-coordinator server (B's owner).
      fake_root_victim = ServerId{(culprit + 1) % n};
      culprit_server.faults().coordinator.fake_root_victim = fake_root_victim;
      break;
    case Fault::kForceCommit:
      culprit_server.faults().coordinator.force_commit = true;
      break;
    default:
      break;  // none / post-run log faults
  }

  // --- Scripted history + noise ----------------------------------------------
  std::vector<RoundMetrics> rounds;
  std::vector<ordserv::GroupRoundResult> group_rounds;  // group-mode scenarios
  std::map<ItemId, Bytes> committed;  // last committed value per item

  // Runs a stream of batches through the (possibly pipelined) engine and
  // folds each round's writes into the committed map in round order —
  // ledger append order stays sequential at every pipeline depth.
  auto run_rounds = [&](std::vector<std::vector<commit::SignedEndTxn>> batches) {
    std::vector<std::vector<std::pair<ItemId, Bytes>>> writes(batches.size());
    for (std::size_t b = 0; b < batches.size(); ++b) {
      for (const auto& req : batches[b]) {
        for (const auto& w : req.request.txn.rw.writes) {
          writes[b].emplace_back(w.id, w.new_value);
        }
      }
    }
    PipelineResult result = cluster.run_blocks(std::move(batches));
    for (std::size_t b = 0; b < result.rounds.size(); ++b) {
      RoundMetrics& m = result.rounds[b];
      const bool applied =
          m.decision == ledger::Decision::kCommit && (use_2pc || m.cosign_valid);
      if (applied) {
        for (auto& [item, value] : writes[b]) committed[item] = std::move(value);
      }
      out.spec_revotes += m.spec_revotes;
      rounds.push_back(std::move(m));
    }
  };
  auto run_round = [&](std::vector<commit::SignedEndTxn> batch) {
    std::vector<std::vector<commit::SignedEndTxn>> batches;
    batches.push_back(std::move(batch));
    run_rounds(std::move(batches));
  };

  if (scenario.group) {
    // §4.6 group mode: the scripted history runs as group-local TFCommit
    // rounds on the engine's multi-coordinator dispatch, sequenced through
    // one OrdServ stream and delivered (validated) at every server. Fresh
    // items per round keep OCC out of the picture — except one deliberate
    // cross-group item reuse that forces a declared dependency — so abort
    // decisions are attributable to the injected cohort fault.
    auto on = [&](std::uint32_t srv, std::uint32_t k) {
      return ItemId{srv + static_cast<std::uint64_t>(n) * k};
    };
    const ItemId dep_item = on((culprit + 2) % n, 11);
    constexpr std::size_t kGroupRounds = 8;
    std::vector<std::vector<commit::SignedEndTxn>> batches;
    std::vector<std::vector<std::pair<ItemId, Bytes>>> writes(kGroupRounds);
    std::vector<bool> touches_culprit(kGroupRounds, false);
    for (std::uint32_t i = 0; i < kGroupRounds; ++i) {
      // Odd rounds run the culprit's own group so the fault is exercised;
      // even rounds roam adjacent pairs so disjoint groups race in flight.
      const std::uint32_t s1 = i % 2 == 1 ? culprit : i % n;
      std::vector<ItemId> items = {on(s1, i + 1), on((s1 + 1) % n, i + 1)};
      if (i == 2 || i == 6) items.push_back(dep_item);
      auto txn = scripted_txn(cluster, client, items, "g" + std::to_string(i));
      for (const auto& w : txn.request.txn.rw.writes) {
        writes[i].emplace_back(w.id, w.new_value);
      }
      for (const ItemId item : items) {
        if (cluster.owner_of(item).value == culprit) touches_culprit[i] = true;
      }
      batches.push_back({std::move(txn)});
    }

    ordserv::Sequencer seq;
    ordserv::GroupRunResult gres = cluster.run_group_blocks(seq, std::move(batches));
    out.spec_revotes += gres.spec_revotes;
    for (std::size_t b = 0; b < gres.rounds.size(); ++b) {
      const ordserv::GroupRoundResult& r = gres.rounds[b];
      if (r.decision == ledger::Decision::kCommit && r.cosign_valid) {
        for (auto& [item, value] : writes[b]) committed[item] = std::move(value);
      }
    }

    // Group-mode oracles: refusal-free delivery (faulty rounds are refused
    // before OrdServ, never at delivery), a stream that validates from
    // genesis (inner co-signs, outer chain, recomputed dependencies), and
    // epoch discipline — every admitted round drew exactly one epoch.
    for (std::uint32_t i = 0; i < n; ++i) {
      if (gres.delivery_refusals[i].has_value()) {
        fail("group delivery refused at S" + std::to_string(i) + ": " +
             gres.delivery_refusals[i]->reason);
      }
    }
    const std::vector<ordserv::SequencedBlock> stream(seq.stream().begin(),
                                                      seq.stream().end());
    if (const auto bad = ordserv::validate_stream(stream, cluster.server_keys())) {
      fail("group stream failed validation at height " + std::to_string(*bad));
    }
    if (seq.epochs().issued() != kGroupRounds) {
      fail("group rounds drew " + std::to_string(seq.epochs().issued()) +
           " epochs for " + std::to_string(kGroupRounds) + " rounds");
    }
    // Dependency-order oracle: whenever two sequenced entries touch the
    // deliberately reused item, the later one must declare the earlier.
    std::optional<std::uint64_t> dep_height;
    for (const ordserv::SequencedBlock& e : stream) {
      bool touches_dep = false;
      for (const auto& t : e.block.txns) {
        for (const ItemId item : t.rw.touched_items()) {
          if (item == dep_item) touches_dep = true;
        }
      }
      if (!touches_dep) continue;
      if (dep_height.has_value() &&
          std::find(e.depends_on.begin(), e.depends_on.end(), *dep_height) ==
              e.depends_on.end()) {
        fail("group stream hides the cross-group dependency at height " +
             std::to_string(e.block.height));
      }
      dep_height = e.block.height;
    }

    // Detection (cohort menu only — see derive_scenario): bad co-sign shares
    // are attributed to the culprit in-round; a vetoing cohort is visible as
    // co-signed aborts on every round it participates in.
    if (fault == Fault::kCorruptCommitment || fault == Fault::kCorruptResponse) {
      out.detected = std::any_of(
          gres.rounds.begin(), gres.rounds.end(), [&](const auto& r) {
            return !r.cosign_valid &&
                   std::find(r.faulty_cosigners.begin(), r.faulty_cosigners.end(),
                             ServerId{culprit}) != r.faulty_cosigners.end();
          });
    } else if (fault == Fault::kVoteAbort) {
      bool any = false, all_aborted = true;
      for (std::size_t b = 0; b < gres.rounds.size(); ++b) {
        if (!touches_culprit[b]) continue;
        any = true;
        if (gres.rounds[b].decision != ledger::Decision::kAbort) all_aborted = false;
      }
      out.detected = any && all_aborted;
    }
    group_rounds = std::move(gres.rounds);
  } else if (fault == Fault::kForceCommit) {
    // The atomicity attack needs an abort vote to override: t2 reads B, then
    // t1 commits a newer version of B, then t2's block arrives stale.
    run_round({scripted_txn(cluster, client, {item_a, item_b}, "s0")});
    auto t_stale = scripted_txn(cluster, client, {item_b}, "s1");
    run_round({scripted_txn(cluster, client, {item_b}, "s2")});
    run_round({std::move(t_stale)});
  } else {
    run_round({scripted_txn(cluster, client, {item_a, item_b}, "r0")});
    run_round({scripted_txn(cluster, client, {item_a, item_b}, "r1")});
    if (scenario.cfg.speculate) {
      // Abort-heavy pipelined stream: block c1 aborts on item_b's stale
      // read while item_a2's owner voted commit — so that owner's
      // speculative vote for block c2 stacks a write that never lands and
      // must be discarded and deterministically re-voted. This is the
      // mis-speculation pressure every speculative seed gets for free.
      const ItemId item_a2 = item_a + n;  // same shard as item_a, untouched
      std::vector<std::vector<commit::SignedEndTxn>> conflict;
      auto c0 = scripted_txn(cluster, client, {item_a, item_b}, "c0");
      auto c1 = scripted_txn(cluster, client, {item_a2, item_b}, "c1");
      auto c2 = scripted_txn(cluster, client, {item_a2}, "c2");
      conflict.push_back({std::move(c0)});
      conflict.push_back({std::move(c1)});
      conflict.push_back({std::move(c2)});
      run_rounds(std::move(conflict));
    }
    // Noise rounds: workload transactions over the whole keyspace. At
    // pipeline_depth > 1 several noise blocks go through one pipelined
    // call, so rounds are genuinely in flight together under the scenario's
    // network faults and Byzantine deviation.
    workload::YcsbWorkload workload(
        {}, static_cast<std::uint64_t>(n) * scenario.cfg.items_per_shard, seed);
    workload.begin_batch();
    const std::size_t noise_blocks =
        scenario.cfg.pipeline_depth > 1 ? 2 + rng.uniform(2) : 1;
    std::vector<std::vector<commit::SignedEndTxn>> noise;
    for (std::size_t b = 0; b < noise_blocks; ++b) {
      std::vector<commit::SignedEndTxn> batch;
      const std::size_t txns = 1 + rng.uniform(3);
      for (std::size_t i = 0; i < txns; ++i) {
        batch.push_back(workload.run_transaction(client));
      }
      noise.push_back(std::move(batch));
    }
    run_rounds(std::move(noise));
  }

  // --- Checkpoint round (TFCommit): must form whenever honest logs agree ------
  // (Group-mode logs are the sequenced stream; validate_stream above is their
  // whole-log check, so the checkpoint round stays a global-mode oracle.)
  if (!use_2pc && !scenario.group && rng.uniform(2) == 0) {
    if (!cluster.create_checkpoint().has_value()) {
      fail("checkpoint co-sign failed to form on agreeing logs");
    }
  }

  // --- Post-run log-layer deviations ------------------------------------------
  Fault effective_fault = fault;
  if (fault == Fault::kTamperLog || fault == Fault::kTruncateLog) {
    auto& log = culprit_server.log();
    if (log.size() < 2) {
      effective_fault = Fault::kNone;  // nothing committed to tamper with
      out.byzantine = false;
    } else if (fault == Fault::kTamperLog) {
      const std::size_t h = rng.uniform(log.size());
      ledger::Block forged = log.at(h);
      forged.decision = forged.committed() ? ledger::Decision::kAbort
                                           : ledger::Decision::kCommit;
      log.tamper_block(h, forged);
    } else {
      log.truncate_tail(log.size() - 1);
    }
  }

  // --- Invariant 1: honest agreement ------------------------------------------
  std::vector<std::uint32_t> honest;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (effective_fault == Fault::kNone || i != culprit) honest.push_back(i);
  }
  const Server& ref = cluster.server(ServerId{honest[0]});
  for (const std::uint32_t i : honest) {
    const Server& s = cluster.server(ServerId{i});
    if (s.log().size() != ref.log().size()) {
      fail("honest logs diverge in length (S" + std::to_string(i) + ")");
      break;
    }
    if (!(s.log().head_hash() == ref.log().head_hash())) {
      fail("honest log head hashes diverge (S" + std::to_string(i) + ")");
      break;
    }
    bool blocks_equal = true;
    for (std::size_t b = 0; b < s.log().size(); ++b) {
      if (!(s.log().at(b).digest() == ref.log().at(b).digest())) blocks_equal = false;
    }
    if (!blocks_equal) {
      fail("honest logs diverge in block contents (S" + std::to_string(i) + ")");
      break;
    }
  }

  // --- Invariant 2: no committed transaction is lost ---------------------------
  // With a crash in the scenario this doubles as the recovery-durability
  // oracle: the victim's store was rebuilt from its round log mid-run, so a
  // lost write here would mean the log replay dropped a committed block.
  for (const auto& [item, value] : committed) {
    const std::uint32_t owner = cluster.owner_of(item).value;
    if (std::find(honest.begin(), honest.end(), owner) == honest.end()) continue;
    if (cluster.server(ServerId{owner}).shard().peek(item).value != value) {
      fail("committed write to item " + std::to_string(item) +
           " lost on honest server S" + std::to_string(owner));
    }
  }

  // --- Crash/recovery oracles ---------------------------------------------------
  if (scenario.crash) {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (cluster.is_crashed(ServerId{i})) {
        fail("server S" + std::to_string(i) + " still down at end of run");
      }
    }
    // Invariant 1 already pinned the recovered victim's ledger bit-identical
    // to the survivors' (it is in the honest set unless it is the culprit).
  }
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    out.terminated = out.terminated || rounds[r].terminated_by_cohorts;
    for (const ServerId eq : rounds[r].vote_equivocators) {
      if (effective_fault == Fault::kNone || eq.value != culprit) {
        fail("server S" + std::to_string(eq.value) + " equivocated its vote in round " +
             std::to_string(r));
      }
    }
  }

  // --- Invariant 3: detection --------------------------------------------------
  const auto any_round = [&](auto&& pred) {
    return std::any_of(rounds.begin(), rounds.end(), pred);
  };
  const auto attributed = [&](const RoundMetrics& m) {
    return !m.cosign_valid &&
           std::find(m.faulty_cosigners.begin(), m.faulty_cosigners.end(),
                     ServerId{culprit}) != m.faulty_cosigners.end();
  };
  const auto refused = [&](const RoundMetrics& m) {
    return !m.cosign_valid && !m.refusals.empty();
  };

  audit::AuditReport report;
  if (!use_2pc && !scenario.group &&
      (effective_fault == Fault::kNone || is_audit_fault(effective_fault))) {
    audit::Auditor auditor(cluster);
    report = auditor.run();
  }
  const auto audit_flags = [&](audit::ViolationKind kind) {
    for (const auto& v : report.of_kind(kind)) {
      if (v.server == ServerId{culprit}) return true;
    }
    return false;
  };

  // (Group-mode detection ran inside the group branch above.)
  if (!scenario.group) switch (effective_fault) {
    case Fault::kNone:
      if (!use_2pc && !report.clean()) {
        fail("honest run audited dirty: " + report.to_string());
      }
      break;
    case Fault::kReadGarbage:
    case Fault::kReadStale:
      out.detected = audit_flags(audit::ViolationKind::kIncorrectRead);
      break;
    case Fault::kSkipWrite:
    case Fault::kCorruptAfterCommit:
      out.detected = audit_flags(audit::ViolationKind::kDatastoreCorruption);
      break;
    case Fault::kCorruptCommitment:
    case Fault::kCorruptResponse:
      out.detected = any_round(attributed);
      break;
    case Fault::kVoteAbort:
      // A vetoing cohort is visible as aborted (but co-signed) rounds: the
      // scripted rounds 0 and 1 both touch the griefer's shard, so its veto
      // must have blocked them. (The noise round may not involve it.)
      out.detected = rounds.size() >= 2 &&
                     rounds[0].decision == ledger::Decision::kAbort &&
                     rounds[1].decision == ledger::Decision::kAbort;
      break;
    case Fault::kEquivSame:
    case Fault::kForceCommit:
      out.detected = any_round(refused);
      break;
    case Fault::kEquivMatching:
      // Nobody can refuse locally (the abort variant looks legitimate), but
      // the aggregate co-sign cannot verify and share verification localizes
      // the inconsistency (commit_test: refusals empty, faulty set not).
      out.detected = any_round([&](const RoundMetrics& m) {
        return !m.cosign_valid && (!m.refusals.empty() || !m.faulty_cosigners.empty());
      });
      break;
    case Fault::kFakeRoot:
      out.detected = any_round([&](const RoundMetrics& m) {
        if (m.cosign_valid) return false;
        for (const auto& [server, reason] : m.refusals) {
          if (server == *fake_root_victim) return true;
        }
        return false;
      });
      break;
    case Fault::kTamperLog:
      // A rewritten block surfaces as kInvalidCosign (its co-sign no longer
      // matches the contents) or as kTamperedLog (chain breakage) depending
      // on where it sits — audit_test pins both classifications.
      out.detected = audit_flags(audit::ViolationKind::kTamperedLog) ||
                     audit_flags(audit::ViolationKind::kInvalidCosign);
      break;
    case Fault::kTruncateLog:
      out.detected = audit_flags(audit::ViolationKind::kIncompleteLog);
      break;
    case Fault::kCount_:
      break;
  }
  if (out.byzantine && !out.detected) {
    fail(std::string("undetected Byzantine fault: ") + fault_name(effective_fault) +
         " at S" + std::to_string(culprit));
  }

  // --- Reproduction tokens -----------------------------------------------------
  crypto::Digest acc;
  for (const RoundMetrics& m : rounds) {
    Bytes d{static_cast<std::uint8_t>(m.decision == ledger::Decision::kCommit),
            static_cast<std::uint8_t>(m.cosign_valid)};
    fold(acc, d);
  }
  for (const ordserv::GroupRoundResult& r : group_rounds) {
    Bytes d{static_cast<std::uint8_t>(r.decision == ledger::Decision::kCommit),
            static_cast<std::uint8_t>(r.cosign_valid),
            static_cast<std::uint8_t>(r.fault.empty())};
    fold(acc, d);
  }
  for (const std::uint32_t i : honest) {
    const Server& s = cluster.server(ServerId{i});
    fold(acc, s.log().head_hash().view());
    fold(acc, s.shard().merkle_root().view());
  }
  out.result_hash = acc;
}

}  // namespace

FuzzOutcome run_schedule(std::uint64_t seed, const FuzzOptions& options) {
  FuzzOutcome out;
  out.seed = seed;
  const Scenario scenario = derive_scenario(seed, options);
  Cluster cluster(scenario.cfg);
  try {
    execute(seed, scenario, cluster, out);
  } catch (const std::logic_error& e) {
    // The engine throws when a schedule leaves rounds incomplete at
    // quiescence ("round dispatcher stalled"): a failed liveness property of
    // this seed, recorded like any other violated invariant.
    if (out.ok) {
      out.ok = false;
      out.failure = e.what();
    }
  }
  // The schedule's identity, up to the stall when the run stalled.
  out.trace_hash = cluster.simnet()->trace_hash();
  return out;
}

}  // namespace fides::sim

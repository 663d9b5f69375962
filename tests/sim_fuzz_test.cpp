// SimNet + schedule-fuzz harness tests.
//
// Three layers: (i) SimNet mechanics — deterministic ordering, loss with
// retransmission, duplication, partition hold/heal, trace hashing; (ii) the
// sim round drivers — an honest simulated round must produce bit-identical
// decisions/ledger state to direct mode, and direct mode must be untouched
// by sim knobs; (iii) the fuzz harness — same-seed determinism and a seed
// sweep of full scenarios (env knobs: FIDES_SIM_SEED to pin one schedule,
// FIDES_SIM_SEEDS to widen the sweep).
#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/schedule_fuzz.hpp"
#include "sim/sim_round.hpp"
#include "sim/simnet.hpp"
#include "workload/ycsb.hpp"

namespace fides {
namespace {

Envelope plain_envelope(const std::string& type, const std::string& body) {
  Envelope env;
  env.sender = NodeId::server(ServerId{0});
  env.type = type;
  env.payload = to_bytes(body);
  return env;
}

TEST(SimNet, DeliversInVirtualTimeOrderDeterministically) {
  sim::SimNetConfig cfg;
  cfg.seed = 7;
  cfg.link.min_delay_us = 10;
  cfg.link.max_delay_us = 500;  // wide window => reordering
  auto run_once = [&] {
    sim::SimNet net(cfg);
    for (int i = 0; i < 20; ++i) {
      net.send(NodeId::server(ServerId{0}), NodeId::server(ServerId{1}),
               plain_envelope("m", "msg-" + std::to_string(i)));
    }
    std::vector<std::string> order;
    net.run([&](NodeId, NodeId, const Envelope& env, bool) {
      order.push_back(to_string(BytesView(env.payload)));
    });
    return std::pair(order, net.trace_hash());
  };
  const auto [order1, hash1] = run_once();
  const auto [order2, hash2] = run_once();
  EXPECT_EQ(order1, order2);
  EXPECT_TRUE(hash1 == hash2);
  // The wide delay window must actually reorder something.
  std::vector<std::string> sent_order;
  for (int i = 0; i < 20; ++i) sent_order.push_back("msg-" + std::to_string(i));
  EXPECT_NE(order1, sent_order);

  sim::SimNetConfig other = cfg;
  other.seed = 8;
  sim::SimNet net(other);
  net.send(NodeId::server(ServerId{0}), NodeId::server(ServerId{1}),
           plain_envelope("m", "msg-0"));
  net.run([](NodeId, NodeId, const Envelope&, bool) {});
  EXPECT_FALSE(net.trace_hash() == hash1);  // different seed, different trace
}

TEST(SimNet, DropRetransmitsUntilDelivered) {
  sim::SimNetConfig cfg;
  cfg.seed = 3;
  cfg.link.drop_prob = 0.9;  // heavy but transient loss
  cfg.max_attempts = 16;
  sim::SimNet net(cfg);
  const int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) {
    net.send(NodeId::server(ServerId{0}), NodeId::server(ServerId{1}),
             plain_envelope("m", std::to_string(i)));
  }
  std::size_t delivered = 0;
  net.run([&](NodeId, NodeId, const Envelope&, bool) { ++delivered; });
  EXPECT_EQ(delivered, static_cast<std::size_t>(kMessages));  // nothing lost forever
  EXPECT_GT(net.stats().dropped, 0u);
}

TEST(SimNet, DuplicatesDeliverExtraCopies) {
  sim::SimNetConfig cfg;
  cfg.seed = 5;
  cfg.link.dup_prob = 1.0;
  sim::SimNet net(cfg);
  for (int i = 0; i < 10; ++i) {
    net.send(NodeId::server(ServerId{0}), NodeId::server(ServerId{1}),
             plain_envelope("m", std::to_string(i)));
  }
  std::size_t delivered = 0;
  net.run([&](NodeId, NodeId, const Envelope&, bool) { ++delivered; });
  EXPECT_EQ(delivered, 20u);
  EXPECT_EQ(net.stats().duplicated, 10u);
}

TEST(SimNet, PartitionHoldsTrafficUntilHeal) {
  sim::SimNetConfig cfg;
  cfg.seed = 11;
  cfg.link.min_delay_us = 10;
  cfg.link.max_delay_us = 20;
  sim::Partition p;
  p.island = {0};
  p.start_us = 0;
  p.heal_us = 5000;
  cfg.partitions.push_back(p);
  sim::SimNet net(cfg);
  // Crossing the partition: held until heal. Within one side: unaffected.
  net.send(NodeId::server(ServerId{0}), NodeId::server(ServerId{1}),
           plain_envelope("m", "cross"));
  net.send(NodeId::server(ServerId{1}), NodeId::server(ServerId{2}),
           plain_envelope("m", "inside"));
  std::vector<std::pair<std::string, double>> deliveries;
  net.run([&](NodeId, NodeId, const Envelope& env, bool) {
    deliveries.emplace_back(to_string(BytesView(env.payload)), net.now_us());
  });
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].first, "inside");
  EXPECT_LT(deliveries[0].second, 100.0);
  EXPECT_EQ(deliveries[1].first, "cross");
  EXPECT_GE(deliveries[1].second, 5000.0);
  EXPECT_EQ(net.stats().held, 1u);
}

TEST(SimNet, ChainedPartitionWindowsHoldUntilTheLastHeal) {
  // Three back-to-back windows isolating S0, deliberately listed out of
  // chronological order: a send at t=0 must be held until the *final* heal
  // (t=300), not released when the first-scanned window heals.
  sim::SimNetConfig cfg;
  cfg.seed = 4;
  cfg.link.min_delay_us = 1;
  cfg.link.max_delay_us = 2;
  cfg.partitions.push_back({{0}, 200.0, 300.0});
  cfg.partitions.push_back({{0}, 100.0, 200.0});
  cfg.partitions.push_back({{0}, 0.0, 100.0});
  sim::SimNet net(cfg);
  net.send(NodeId::server(ServerId{0}), NodeId::server(ServerId{1}),
           plain_envelope("m", "x"));
  double delivered_at = -1;
  net.run([&](NodeId, NodeId, const Envelope&, bool) { delivered_at = net.now_us(); });
  EXPECT_GE(delivered_at, 300.0);
}

TEST(SimNet, PerLinkOverridesApplyToThatLinkOnly) {
  // One directed link (0 -> 1) is degraded far beyond the global profile;
  // the reverse direction and every other link keep the fast global model.
  sim::SimNetConfig cfg;
  cfg.seed = 21;
  cfg.link.min_delay_us = 1;
  cfg.link.max_delay_us = 5;
  sim::LinkOverride slow;
  slow.src = 0;
  slow.dst = 1;
  slow.faults.min_delay_us = 10000;
  slow.faults.max_delay_us = 10001;
  cfg.link_overrides.push_back(slow);

  sim::SimNet net(cfg);
  net.send(NodeId::server(ServerId{0}), NodeId::server(ServerId{1}),
           plain_envelope("m", "slow"));
  net.send(NodeId::server(ServerId{1}), NodeId::server(ServerId{0}),
           plain_envelope("m", "fast-reverse"));
  net.send(NodeId::server(ServerId{0}), NodeId::server(ServerId{2}),
           plain_envelope("m", "fast-other"));
  std::vector<std::pair<std::string, double>> deliveries;
  net.run([&](NodeId, NodeId, const Envelope& env, bool) {
    deliveries.emplace_back(to_string(BytesView(env.payload)), net.now_us());
  });
  ASSERT_EQ(deliveries.size(), 3u);
  for (const auto& [what, at] : deliveries) {
    if (what == "slow") {
      EXPECT_GE(at, 10000.0);
    } else {
      EXPECT_LT(at, 100.0) << what;
    }
  }
}

TEST(SimNet, CrashDropsDeliveriesUntilRecovery) {
  sim::SimNetConfig cfg;
  cfg.seed = 13;
  cfg.link.min_delay_us = 10;
  cfg.link.max_delay_us = 20;
  sim::SimNet net(cfg);
  const NodeId a = NodeId::server(ServerId{0});
  const NodeId b = NodeId::server(ServerId{1});
  net.schedule_crash(b, 100);
  net.schedule_recover(b, 1000);
  net.send(a, b, plain_envelope("m", "before"));  // lands ~t=15: delivered
  std::vector<std::string> got;
  std::vector<std::string> control;
  net.run(
      [&](NodeId, NodeId, const Envelope& env, bool) {
        got.push_back(to_string(BytesView(env.payload)));
      },
      [&](const engine::ControlEvent& ev) {
        control.push_back(ev.kind == engine::ControlEvent::Kind::kCrash ? "crash"
                                                                        : "recover");
        if (control.back() == "crash") {
          // Lands ~15us into the outage: the addressee is dead — lost.
          net.send(a, b, plain_envelope("m", "during"));
        } else {
          net.send(a, b, plain_envelope("m", "after"));
        }
      });
  EXPECT_EQ(got, (std::vector<std::string>{"before", "after"}));
  EXPECT_EQ(control, (std::vector<std::string>{"crash", "recover"}));
  EXPECT_EQ(net.stats().lost_down, 1u);
  EXPECT_FALSE(net.is_down(b));
}

TEST(SimNet, SequencedSendsDeliverInOrderAndFlagReplay) {
  sim::SimNetConfig cfg;
  cfg.seed = 3;
  cfg.link.min_delay_us = 1;
  cfg.link.max_delay_us = 2000;  // wild reorder for normal sends
  sim::SimNet net(cfg);
  const NodeId a = NodeId::server(ServerId{0});
  const NodeId b = NodeId::server(ServerId{1});
  for (int i = 0; i < 8; ++i) {
    net.send_sequenced(a, b, plain_envelope("m", "seq-" + std::to_string(i)));
  }
  std::vector<std::string> order;
  net.run([&](NodeId, NodeId, const Envelope& env, bool replay) {
    EXPECT_TRUE(replay);
    order.push_back(to_string(BytesView(env.payload)));
  });
  std::vector<std::string> expected;
  for (int i = 0; i < 8; ++i) expected.push_back("seq-" + std::to_string(i));
  EXPECT_EQ(order, expected);  // FIFO despite the chaotic normal-link profile
}

TEST(SimNet, SelfDeliveryIsIdealAndUnfaulted) {
  sim::SimNetConfig cfg;
  cfg.seed = 2;
  cfg.link.drop_prob = 1.0;  // would loop a real link to max_attempts
  cfg.link.dup_prob = 1.0;
  sim::SimNet net(cfg);
  net.send(NodeId::server(ServerId{0}), NodeId::server(ServerId{0}),
           plain_envelope("m", "self"));
  std::size_t delivered = 0;
  net.run([&](NodeId, NodeId, const Envelope&, bool) { ++delivered; });
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(net.stats().dropped, 0u);
  EXPECT_EQ(net.stats().duplicated, 0u);
}

// --- Sim rounds vs the direct engine ------------------------------------------

ClusterConfig round_config() {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.items_per_shard = 32;
  cfg.versioning = store::VersioningMode::kMulti;
  cfg.max_batch_size = 8;
  return cfg;
}

struct RunResult {
  std::vector<ledger::Decision> decisions;
  std::vector<crypto::Digest> head_hashes;
  std::vector<crypto::Digest> merkle_roots;
  std::vector<std::size_t> log_sizes;
  bool checkpoint_formed{false};
  std::uint64_t checkpoint_height{0};
  /// The aggregate signature bits themselves: nonces are deterministic, so
  /// even these must match between direct and simulated runs.
  std::optional<crypto::CosiSignature> checkpoint_cosign;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

RunResult run_workload(ClusterConfig cfg, std::size_t rounds, std::size_t txns) {
  Cluster cluster(cfg);
  Client& client = cluster.make_client();
  workload::YcsbWorkload workload(
      {}, static_cast<std::uint64_t>(cfg.num_servers) * cfg.items_per_shard, cfg.seed);
  RunResult result;
  for (std::size_t r = 0; r < rounds; ++r) {
    workload.begin_batch();
    std::vector<commit::SignedEndTxn> batch;
    for (std::size_t i = 0; i < txns; ++i) batch.push_back(workload.run_transaction(client));
    result.decisions.push_back(cluster.run_block(std::move(batch)).decision);
  }
  const auto cp = cluster.create_checkpoint();
  result.checkpoint_formed = cp.has_value();
  if (cp) {
    result.checkpoint_height = cp->height;
    result.checkpoint_cosign = cp->cosign;
  }
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    const Server& s = cluster.server(ServerId{i});
    result.head_hashes.push_back(s.log().head_hash());
    result.merkle_roots.push_back(s.shard().merkle_root());
    result.log_sizes.push_back(s.log().size());
  }
  return result;
}

TEST(SimRound, HonestSimulatedRunMatchesDirectModeBitForBit) {
  // The schedule must not change the outcome: decisions, blocks, co-signs
  // (deterministic nonces), checkpoint — all identical to direct delivery,
  // even under loss, duplication, and heavy reorder.
  const RunResult direct = run_workload(round_config(), 3, 4);
  for (const std::uint64_t sim_seed : {1ULL, 99ULL}) {
    ClusterConfig cfg = round_config();
    cfg.network.mode = sim::NetworkMode::kSimulated;
    cfg.network.sim.seed = sim_seed;
    cfg.network.sim.link.drop_prob = 0.2;
    cfg.network.sim.link.dup_prob = 0.2;
    cfg.network.sim.link.min_delay_us = 10;
    cfg.network.sim.link.max_delay_us = 800;
    const RunResult simulated = run_workload(cfg, 3, 4);
    EXPECT_TRUE(simulated == direct) << "sim seed " << sim_seed;
  }
}

TEST(SimRound, TwoPhaseCommitSimulatedMatchesDirect) {
  ClusterConfig base = round_config();
  base.protocol = Protocol::kTwoPhaseCommit;
  const RunResult direct = run_workload(base, 2, 4);
  ClusterConfig cfg = base;
  cfg.network.mode = sim::NetworkMode::kSimulated;
  cfg.network.sim.seed = 17;
  cfg.network.sim.link.drop_prob = 0.15;
  cfg.network.sim.link.max_delay_us = 600;
  const RunResult simulated = run_workload(cfg, 2, 4);
  EXPECT_TRUE(simulated == direct);
}

TEST(SimRound, DirectModeIgnoresSimKnobs) {
  // Guard for "direct delivery stays bit-identical": with mode == kDirect,
  // arbitrary sim parameters must change nothing.
  const RunResult baseline = run_workload(round_config(), 2, 4);
  ClusterConfig cfg = round_config();
  cfg.network.sim.seed = 12345;
  cfg.network.sim.link.drop_prob = 0.9;
  cfg.network.sim.partitions.push_back({{0, 1}, 0.0, 1e9});
  const RunResult knobbed = run_workload(cfg, 2, 4);
  EXPECT_TRUE(knobbed == baseline);
  Cluster direct(round_config());
  EXPECT_EQ(direct.simnet(), nullptr);
}

TEST(SimRound, ByzantineAttributionSurvivesHostileSchedules) {
  // Lemma 4 under network chaos: the corrupt cosigner is attributed
  // identically no matter the schedule.
  for (const std::uint64_t sim_seed : {1ULL, 2ULL, 3ULL}) {
    ClusterConfig cfg = round_config();
    cfg.network.mode = sim::NetworkMode::kSimulated;
    cfg.network.sim.seed = sim_seed;
    cfg.network.sim.link.drop_prob = 0.3;
    cfg.network.sim.link.dup_prob = 0.3;
    cfg.network.sim.link.max_delay_us = 1000;
    Cluster cluster(cfg);
    Client& client = cluster.make_client();
    cluster.server(ServerId{2}).faults().cohort.corrupt_sch_response = true;
    ClientTxn txn = client.begin();
    cluster.client_begin(client, txn.id(), std::vector<ItemId>{0, 1});
    client.read(txn, 0);
    client.write(txn, 0, to_bytes("x"));
    const auto metrics = cluster.run_block({client.end(std::move(txn))});
    EXPECT_FALSE(metrics.cosign_valid);
    ASSERT_EQ(metrics.faulty_cosigners.size(), 1u) << "sim seed " << sim_seed;
    EXPECT_EQ(metrics.faulty_cosigners[0], ServerId{2});
  }
}

// --- Schedule fuzzing ----------------------------------------------------------

TEST(ScheduleFuzz, SameSeedReproducesByteIdenticalRuns) {
  for (const std::uint64_t seed : {1ULL, 17ULL, 1234ULL}) {
    const sim::FuzzOutcome a = sim::run_schedule(seed);
    const sim::FuzzOutcome b = sim::run_schedule(seed);
    EXPECT_TRUE(a.trace_hash == b.trace_hash) << "seed " << seed;
    EXPECT_TRUE(a.result_hash == b.result_hash) << "seed " << seed;
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.scenario, b.scenario);
  }
}

TEST(ScheduleFuzz, DistinctSeedsExploreDistinctSchedules) {
  const sim::FuzzOutcome a = sim::run_schedule(100);
  const sim::FuzzOutcome b = sim::run_schedule(101);
  EXPECT_FALSE(a.trace_hash == b.trace_hash);
}

TEST(ScheduleFuzz, StalledPipelineIsAFailedOutcomeNotAnException) {
  // This crash + speculation schedule leaves rounds incomplete at quiescence,
  // and the engine throws "round dispatcher stalled". The harness records
  // that as a failed outcome so a --keep-going sweep carries on, and the
  // record explains itself: the stuck round's phase counts and the schedule
  // reached at the stall.
  sim::FuzzOptions options;
  options.with_crash = true;
  options.force_speculation = true;
  sim::FuzzOutcome outcome;
  EXPECT_NO_THROW(outcome = sim::run_schedule(101349, options));
  EXPECT_EQ(outcome.seed, 101349u);
  EXPECT_EQ(outcome.ok, outcome.failure.empty()) << outcome.failure;
  if (!outcome.ok) {  // while the termination fork stalls this seed
    EXPECT_NE(outcome.failure.find("votes="), std::string::npos) << outcome.failure;
  }
  EXPECT_FALSE(outcome.trace_hash.is_zero()) << "the trace hash must survive a stall";
}

TEST(ScheduleFuzz, SeedSweepHoldsAllInvariants) {
  // FIDES_SIM_SEED pins one schedule (reproduction workflow); FIDES_SIM_SEEDS
  // widens the sweep. The heavy sweep lives in the fides_simfuzz runner.
  std::uint64_t base = 1;
  std::size_t count = 32;
  if (const char* pin = std::getenv("FIDES_SIM_SEED")) {
    base = std::strtoull(pin, nullptr, 10);
    count = 1;
  } else if (const char* env = std::getenv("FIDES_SIM_SEEDS")) {
    count = std::strtoull(env, nullptr, 10);
  }
  std::size_t byzantine = 0;
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    const sim::FuzzOutcome outcome = sim::run_schedule(seed);
    EXPECT_TRUE(outcome.ok) << "seed " << seed << " [" << outcome.scenario
                            << "]: " << outcome.failure
                            << "\n  trace=" << outcome.trace_hash.hex();
    byzantine += outcome.byzantine ? 1 : 0;
  }
  if (count >= 32) {
    EXPECT_GT(byzantine, 0u);  // the menu is actually being sampled
  }
}

}  // namespace
}  // namespace fides

// SimNet as a round-engine scheduler.
//
// All commit-round and checkpoint choreography lives in src/engine/ — one
// set of reactors shared with the in-process path. This adapter is the only
// simulation-specific piece: it turns engine sends into SimNet events and
// SimNet deliveries into engine dispatches, so the same protocol logic runs
// under seeded delay/reorder/drop/duplication/partition schedules. Message
// payloads cross the simulated wire as canonical bytes and are deserialized
// at the receiver, so the serialization layer is exercised on every hop.
//
// For an honest cluster the outcome is bit-identical to direct mode:
// decisions, blocks, co-signs (deterministic nonces), and ledger state do
// not depend on the delivery schedule — which is exactly the property the
// schedule fuzzer (sim/schedule_fuzz.*) checks en masse.
#pragma once

#include "engine/scheduler.hpp"
#include "sim/simnet.hpp"

namespace fides::sim {

class SimNetScheduler final : public engine::Scheduler, private engine::Outbox {
 public:
  explicit SimNetScheduler(SimNet& net) : net_(&net) {}

  engine::Outbox& outbox() override { return *this; }

  void run(engine::Dispatcher& dispatcher) override {
    net_->run(
        [&](NodeId src, NodeId dst, const Envelope& env, bool replay) {
          if (replay) {
            dispatcher.dispatch_replay(src, dst, env, *this);
          } else {
            dispatcher.dispatch(src, dst, env, *this);
          }
        },
        [&](const engine::ControlEvent& ev) { dispatcher.on_control(ev, *this); });
  }

  // post() and concurrency() keep their defaults: the event loop is
  // single-threaded, so node-local control actions need no queueing.

  bool supports_crashes() const override { return true; }

  void crash_node(NodeId node) override { net_->crash_now(node); }

  void schedule_recover(NodeId node, double delay_us) override {
    net_->schedule_recover(node, net_->now_us() + delay_us);
  }

  void schedule_failure_probe(NodeId node, double delay_us) override {
    net_->schedule_timeout(node, net_->now_us() + delay_us);
  }

 private:
  void send(NodeId src, NodeId dst, Envelope env) override {
    net_->send(src, dst, std::move(env));
  }

  void send_replay(NodeId src, NodeId dst, Envelope env) override {
    net_->send_sequenced(src, dst, std::move(env));
  }

  SimNet* net_;
};

}  // namespace fides::sim

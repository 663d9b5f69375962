// The execution substrate of the round engine.
//
// The engine splits protocol choreography from message delivery:
//
//   * A *reactor* (engine/reactor.hpp) is a pure event handler for one
//     protocol round: it consumes delivered envelopes and emits sends into
//     an Outbox. It never decides *when* anything runs.
//   * A *scheduler* owns delivery. Two implementations exist: the
//     in-process scheduler (engine/inproc_scheduler.hpp), which executes
//     deliveries immediately — serialized per destination node, concurrent
//     across nodes on the cluster's thread pool — and the SimNet adapter
//     (sim/sim_round.hpp), which replays the same reactors over the seeded
//     discrete-event network.
//
// Because reactors are schedule-oblivious and all protocol state lives in
// per-node / per-slot structures, a round's outcome (decisions, blocks,
// co-signs, ledger state) is a function of the message *contents* only —
// which is exactly the property the schedule fuzzer checks en masse, and
// what makes the in-process and simulated paths bit-identical.
#pragma once

#include <chrono>
#include <functional>
#include <optional>

#include "common/serde.hpp"
#include "fides/transport.hpp"

namespace fides::engine {

/// Sink for outbound protocol messages. Reactors call this; the scheduler
/// decides when (and, for SimNet, with what delay/faults) delivery happens.
class Outbox {
 public:
  virtual ~Outbox() = default;
  virtual void send(NodeId src, NodeId dst, Envelope env) = 0;

  /// Recovery catch-up stream: delivered in send order over an ideal link
  /// (modeling the reliable retransmission channel a rejoining node opens),
  /// and flagged as a replay so the receiver-side dedup filter lets the
  /// re-sent copies through. Default: indistinguishable from send(), which
  /// is correct for FIFO in-process delivery.
  virtual void send_replay(NodeId src, NodeId dst, Envelope env) {
    send(src, dst, std::move(env));
  }
};

/// A node-level control transition surfaced by the substrate: the node
/// died, the node came back, or a failure-detection timeout fired.
struct ControlEvent {
  enum class Kind : std::uint8_t {
    kCrash,               ///< node lost all volatile state; deliveries to it now drop
    kRecover,             ///< node restarts from its durable round log
    kCoordinatorTimeout,  ///< termination timer: check the coordinator, act if dead
    kTimer,               ///< generic node-local timer (client retry, open-loop submit)
    kPeerApplied,         ///< remote process reports `node` processed epoch `tag`'s decision
  };
  Kind kind{Kind::kCrash};
  NodeId node;
  /// Discriminates kTimer firings (e.g. which transaction's retry clock
  /// expired); unused by the other kinds.
  std::uint64_t tag{0};
};

/// Receiver side: every delivery the scheduler performs funnels through one
/// dispatch call (the round dispatcher's, which dedups, gates, routes, and
/// invokes the owning reactor).
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;
  virtual void dispatch(NodeId src, NodeId dst, const Envelope& env, Outbox& out) = 0;

  /// One queued envelope delivery, as grouped by a scheduler's drain of a
  /// destination queue. The envelope is owned by the scheduler and stays
  /// alive for the duration of the dispatch_batch call.
  struct Delivery {
    NodeId src;
    const Envelope* env;
  };

  /// A contiguous run of deliveries claimed for one destination in one drain
  /// — the natural unit for verifying an inbox's signatures as a batch
  /// before delivering. The default preserves exact per-item semantics;
  /// overrides must too (same order, same outcomes), and may only hoist
  /// order-independent work such as signature checks.
  virtual void dispatch_batch(std::span<const Delivery> batch, NodeId dst, Outbox& out) {
    for (const auto& d : batch) dispatch(d.src, dst, *d.env, out);
  }

  /// Replay deliveries (recovery catch-up stream) bypass the at-most-once
  /// filter; everything else is dispatch().
  virtual void dispatch_replay(NodeId src, NodeId dst, const Envelope& env, Outbox& out) {
    dispatch(src, dst, env, out);
  }

  /// Crash/recover/timeout transitions from the substrate. Default: ignore
  /// (schedulers without a failure model never emit them).
  virtual void on_control(const ControlEvent& ev, Outbox& out) {
    (void)ev;
    (void)out;
  }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual Outbox& outbox() = 0;

  /// Delivers until quiescent: returns when every queued message (and
  /// everything transitively sent by its handlers) has been dispatched.
  virtual void run(Dispatcher& dispatcher) = 0;

  /// Enqueues a node-local control action (e.g. "coordinator: start the
  /// next round") serialized with `dst`'s deliveries. The default executes
  /// inline, which is correct for single-threaded schedulers; concurrent
  /// schedulers must route it through dst's delivery queue.
  virtual void post(NodeId dst, std::function<void()> fn) {
    (void)dst;
    fn();
  }

  /// Threads handlers may execute on (RoundMetrics::threads_used).
  virtual std::size_t concurrency() const { return 1; }

  // --- Failure model ----------------------------------------------------------
  //
  // Node crash/recovery is a property of the delivery substrate: the
  // substrate decides that deliveries to a dead node are lost and when the
  // ControlEvents fire. SimNet implements these; schedulers without a
  // failure model keep the no-op defaults, which disables transition-
  // triggered crash points and termination timers under them.

  virtual bool supports_crashes() const { return false; }

  /// Marks `node` dead immediately: subsequent deliveries to it are lost
  /// until a scheduled recovery (none scheduled => it stays dead).
  virtual void crash_node(NodeId node) { (void)node; }

  /// Fires a kRecover ControlEvent for `node` after `delay_us` of substrate
  /// time.
  virtual void schedule_recover(NodeId node, double delay_us) {
    (void)node;
    (void)delay_us;
  }

  /// Fires a kCoordinatorTimeout ControlEvent for `node` after `delay_us` —
  /// the failure-detection probe behind cohort-driven termination.
  virtual void schedule_failure_probe(NodeId node, double delay_us) {
    (void)node;
    (void)delay_us;
  }

  // --- Distribution hooks -----------------------------------------------------
  //
  // A single-process scheduler sees every server's decision handler run
  // locally, so the dispatcher's completion bookkeeping is already global.
  // The socket scheduler hosts one server per process: these two hooks let
  // the dispatcher (a) tell the substrate a hosted server finished processing
  // a decision — which the substrate forwards to the coordinator process as
  // a kPeerApplied ControlEvent — and (b) hand run() a completion predicate
  // so the coordinator's event loop knows when to stop waiting for frames
  // that only remote processes can produce. Both default to no-ops; the
  // in-process and SimNet schedulers are quiescence-driven and never need
  // them.

  /// `server` (hosted by this process) finished processing the decision of
  /// the round with epoch `epoch`.
  virtual void notify_applied(std::uint32_t server, std::uint64_t epoch) {
    (void)server;
    (void)epoch;
  }

  /// Predicate run() may poll to decide whether all rounds completed.
  virtual void set_completion(std::function<bool()> done) { (void)done; }
};

// --- Engine frame -------------------------------------------------------------
//
// With pipelining, several rounds are in flight on one wire, so every engine
// payload is prefixed with the round's epoch (a u64 handed out by the
// ordserv epoch counter). The frame is part of the signed envelope payload —
// a Byzantine node cannot re-tag a message into another round without
// breaking the sender signature. Client data-path traffic is not framed; it
// never crosses the engine dispatcher.

inline Bytes frame_payload(std::uint64_t epoch, BytesView payload) {
  Writer w;
  w.u64(epoch);
  w.raw(payload);
  return std::move(w).take();
}

/// Epoch of a framed payload, or nullopt for a malformed (short) frame.
inline std::optional<std::uint64_t> peek_epoch(BytesView payload) {
  if (payload.size() < 8) return std::nullopt;
  Reader r(payload);
  return r.u64();
}

/// The protocol message bytes behind the frame header. Throws DecodeError on
/// a short frame: with real sockets the payload arrives from an untrusted
/// fd, and subspan(8) past the end would be UB, not a protocol outcome.
/// Dispatchers at trust boundaries catch DecodeError and drop the frame.
inline BytesView unframe_payload(BytesView payload) {
  if (payload.size() < 8) {
    throw DecodeError("engine frame shorter than its epoch header");
  }
  return payload.subspan(8);
}

inline NodeId server_node(std::uint32_t i) { return NodeId::server(ServerId{i}); }

using Clock = std::chrono::steady_clock;  ///< measurement only, never protocol input

inline double since_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

}  // namespace fides::engine

// The third scheduler: real sockets, one process per server.
//
// SocketScheduler implements the engine's Scheduler/Outbox seam over a
// poll(2) event loop (net/poller.hpp) speaking length-framed messages
// (net/frame.hpp) on TCP or Unix-domain stream sockets. Each process hosts
// exactly one server of a deterministically replicated Cluster — the
// coordinator process (self == 0) also hosts the clients — and every
// process constructs the identical Cluster from the identical config, so
// keys, epochs, and provisioned shards agree without any state exchange.
//
// Routing is locality: a send whose destination is hosted here goes onto a
// local FIFO and is dispatched in the run loop; anything else is framed
// onto the destination process's connection (dialed on demand, retried
// while the peer is still provisioning). The reactors and the commit
// pipeline are unchanged — the same bit-identical-ledger gate the
// in-process and SimNet schedulers pass applies to this one.
//
// Crash mapping: a peer's connection dying mid-run surfaces as the engine's
// existing kCrash ControlEvent (the coordinator destroys its local replica,
// exactly as SimNet crashes do); the peer process reconnecting — its HELLO
// frame after a restart — surfaces as kRecover, which replays the shared
// durable round log and re-sends the catch-up stream over the socket. A
// hosted server hitting a configured crash point dies for real:
// crash_node(self) is std::_Exit, and the durable log (flushed on every
// append) is what the restarted process rejoins from.
#pragma once

#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/scheduler.hpp"
#include "fides/cluster.hpp"
#include "net/frame.hpp"
#include "net/poller.hpp"

namespace fides::net {

struct SocketOptions {
  /// addrs[i] = listen address of the process hosting server i
  /// ("unix:/path" or "tcp:host:port"). Size must equal num_servers.
  std::vector<std::string> addrs;
  std::uint32_t self{0};  ///< the server this process hosts

  /// Serverd under a configured crash point: crash_node(self) exits the
  /// process with `crash_exit_code` instead of simulating. Off for the
  /// coordinator.
  bool die_on_crash{false};
  int crash_exit_code{42};

  /// How long dial-on-demand retries while a peer is still provisioning
  /// its (deterministically identical, hence equally slow) cluster.
  double connect_timeout_s{120.0};
  /// run() throws after this long without a delivery, control event, or
  /// readable frame — the multi-process analogue of quiescence-with-
  /// incomplete-rounds, surfaced as an error instead of a hang.
  double stall_timeout_s{120.0};
};

class SocketScheduler final : public engine::Scheduler, private engine::Outbox {
 public:
  /// Binds + listens on addrs[self] immediately (so the process is
  /// dialable before run() starts); a non-coordinator also dials the
  /// coordinator and introduces itself, which is what turns a serverd
  /// restart into the coordinator's kRecover signal.
  SocketScheduler(Cluster& cluster, SocketOptions opts);
  ~SocketScheduler() override;

  SocketScheduler(const SocketScheduler&) = delete;
  SocketScheduler& operator=(const SocketScheduler&) = delete;

  // --- engine::Scheduler ------------------------------------------------------

  engine::Outbox& outbox() override { return *this; }
  void run(engine::Dispatcher& dispatcher) override;

  /// Node-local control actions run inline when the node is hosted here;
  /// a start() posted for a remote coordinator is dropped — that process
  /// runs it itself.
  void post(NodeId dst, std::function<void()> fn) override;

  bool supports_crashes() const override { return true; }
  void crash_node(NodeId node) override;
  /// Recovery is driven by the real reconnect (HELLO after restart), not a
  /// timer; nothing to schedule.
  void schedule_recover(NodeId node, double delay_us) override;
  /// Coordinator-death termination over sockets is out of scope (v1); the
  /// probe is a no-op, so rounds wait for the coordinator — 2PC semantics
  /// documented in the README.
  void schedule_failure_probe(NodeId node, double delay_us) override;

  void notify_applied(std::uint32_t server, std::uint64_t epoch) override;
  void set_completion(std::function<bool()> done) override { done_ = std::move(done); }

  // --- Coordinator finish flow ------------------------------------------------

  /// After run() completed: queries every live remote server's committed-
  /// state digest, then broadcasts shutdown and drains the sockets.
  /// Returns the digests that arrived within `timeout_s`, sorted by server.
  std::vector<PeerDigest> finish(double timeout_s = 30.0);

  /// Serverd side: run() returned because the coordinator said so (vs a
  /// lost coordinator connection, which also ends the loop but unclean).
  bool shutdown_received() const { return shutdown_; }

 private:
  struct Conn {
    int fd{-1};
    FrameReader reader;
    Bytes wbuf;              ///< unsent frame bytes, drained on POLLOUT
    std::size_t wpos{0};
    std::int64_t peer_server{-1};  ///< from HELLO or the dial target; -1 unknown
  };

  struct Delivery {
    NodeId src;
    NodeId dst;
    Envelope env;
    bool replay{false};
  };
  struct LocalEvent {
    bool is_control{false};
    Delivery delivery;
    engine::ControlEvent control;
  };

  bool hosted(NodeId node) const {
    return node.kind == NodeId::Kind::kServer ? node.id == opts_.self : opts_.self == 0;
  }

  // Outbox.
  void send(NodeId src, NodeId dst, Envelope env) override;
  void send_replay(NodeId src, NodeId dst, Envelope env) override;
  void send_impl(NodeId src, NodeId dst, Envelope env, bool replay);

  Conn* conn_for_server(std::uint32_t server);
  Conn* adopt_fd(int fd, std::int64_t peer_server);
  void queue_frame(Conn& conn, const Bytes& frame);
  /// False if the conn died on a write error (and was dropped).
  bool flush_conn(Conn& conn);
  void handle_accept();
  void handle_readable(Conn& conn, short revents);
  void handle_frame(Conn& conn, const Frame& frame);
  void drop_conn(Conn& conn, const char* why);
  bool drain_local();

  /// Writes every buffered byte (blocking via short poll rounds) — the
  /// teardown path, where losing buffered decisions would strand peers.
  void flush_all_blocking(double timeout_s);

  // Everything below is confined to the process's single event-loop thread
  // (concurrency() == 1): construction, run(), finish(), and every poll
  // callback execute on the same thread, so no field needs a lock.
  Cluster* cluster_;         // confined(actor)
  SocketOptions opts_;       // confined(actor)
  Poller poller_;            // confined(actor)
  int listen_fd_{-1};        // confined(actor)
  std::string listen_path_;  // confined(actor) -- unix socket path, unlinked on teardown
  std::vector<std::unique_ptr<Conn>> conns_;               // confined(actor)
  std::unordered_map<std::uint32_t, Conn*> conn_of_server_;  // confined(actor)
  std::vector<unsigned char> peer_crashed_;  // confined(actor)
  std::deque<LocalEvent> queue_;             // confined(actor)
  engine::Dispatcher* dispatcher_{nullptr};  // confined(actor)
  std::function<bool()> done_;               // confined(actor)
  bool shutdown_{false};                     // confined(actor)
  bool coordinator_lost_{false};  // confined(actor) -- coordinator conn died un-shutdown
  bool finished_{false};  // confined(actor) -- run() done; disconnects are teardown
  std::vector<PeerDigest> digests_;  // confined(actor)
};

}  // namespace fides::net

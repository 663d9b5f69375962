#include "net/socket_scheduler.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "net/socket.hpp"

namespace fides::net {

namespace {

using Clock = std::chrono::steady_clock;

double since_s(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

SocketScheduler::SocketScheduler(Cluster& cluster, SocketOptions opts)
    : cluster_(&cluster),
      opts_(std::move(opts)),
      peer_crashed_(cluster.num_servers(), 0) {
  if (opts_.addrs.size() != cluster.num_servers()) {
    throw std::runtime_error("socket scheduler: addrs must list one address per server");
  }
  if (opts_.self >= cluster.num_servers()) {
    throw std::runtime_error("socket scheduler: self is not a server of this cluster");
  }
  const ParsedAddr parsed = parse_addr(opts_.addrs[opts_.self]);
  if (parsed.is_unix) listen_path_ = parsed.path;
  listen_fd_ = listen_on(opts_.addrs[opts_.self]);
  poller_.add(listen_fd_, [this](int, short) { handle_accept(); });
  if (opts_.self != 0) {
    // Dial the coordinator now and introduce ourselves: on a first boot
    // this is plain registration; after a restart it is the reconnect the
    // coordinator maps to a kRecover event.
    conn_for_server(0);
  }
}

SocketScheduler::~SocketScheduler() {
  for (const auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!listen_path_.empty()) ::unlink(listen_path_.c_str());
}

// --- Scheduler ---------------------------------------------------------------

void SocketScheduler::run(engine::Dispatcher& dispatcher) {
  dispatcher_ = &dispatcher;
  auto last_progress = Clock::now();
  for (;;) {
    if (drain_local()) last_progress = Clock::now();
    if (done_ && done_()) {
      finished_ = true;
      dispatcher_ = nullptr;
      return;
    }
    if (shutdown_ || coordinator_lost_) {
      dispatcher_ = nullptr;
      return;
    }
    if (poller_.poll_once(50) > 0) {
      last_progress = Clock::now();
      continue;
    }
    if (since_s(last_progress) > opts_.stall_timeout_s) {
      dispatcher_ = nullptr;
      throw std::runtime_error(
          "socket scheduler stalled: no frames or deliveries for " +
          std::to_string(opts_.stall_timeout_s) + "s (server " +
          std::to_string(opts_.self) + ")");
    }
  }
}

void SocketScheduler::post(NodeId dst, std::function<void()> fn) {
  // Node-local control actions (round starts on the coordinator) execute
  // only in the hosting process; any other process drops them — its replica
  // of that node is inert by design.
  if (hosted(dst)) fn();
}

void SocketScheduler::crash_node(NodeId node) {
  if (node.kind != NodeId::Kind::kServer || node.id >= peer_crashed_.size()) return;
  if (node.id == opts_.self) {
    if (opts_.die_on_crash) {
      // A real crash: no destructors, no buffered-write flushing. The
      // durable round log is already on disk (append() flushes every
      // record), which is exactly what the restarted process rejoins from.
      std::fflush(stderr);
      std::_Exit(opts_.crash_exit_code);
    }
    return;  // the hosting process cannot simulate its own death
  }
  // A remote peer declared dead (integrity-failed recovery): drop its
  // connection and everything queued for it.
  peer_crashed_[node.id] = 1;
  const auto it = conn_of_server_.find(node.id);
  if (it != conn_of_server_.end()) drop_conn(*it->second, "declared dead");
}

void SocketScheduler::schedule_recover(NodeId node, double delay_us) {
  (void)node;
  (void)delay_us;  // recovery is the peer actually reconnecting
}

void SocketScheduler::schedule_failure_probe(NodeId node, double delay_us) {
  (void)node;
  (void)delay_us;  // coordinator-death termination over sockets: v1 non-goal
}

void SocketScheduler::notify_applied(std::uint32_t server, std::uint64_t epoch) {
  // Only a cohort process reports to the coordinator; the coordinator's own
  // completions are already in its pipeline bookkeeping, and acknowledging
  // a remote ACK here would loop (the pipeline calls this hook for *every*
  // first-time completion, including ones learned from kPeerApplied).
  if (opts_.self == 0 || server != opts_.self) return;
  Conn* conn = conn_for_server(0);
  if (conn != nullptr) queue_frame(*conn, encode_applied(server, epoch));
}

std::vector<PeerDigest> SocketScheduler::finish(double timeout_s) {
  finished_ = true;
  digests_.clear();
  std::size_t expected = 0;
  for (std::uint32_t s = 0; s < peer_crashed_.size(); ++s) {
    if (s == opts_.self || peer_crashed_[s] != 0) continue;
    Conn* conn = conn_for_server(s);
    if (conn == nullptr) continue;
    queue_frame(*conn, encode_digest_query(s));
    ++expected;
  }
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  while (digests_.size() < expected && Clock::now() < deadline) {
    poller_.poll_once(50);
  }
  // Shutdown broadcast, then drain everything buffered before closing.
  std::vector<std::uint32_t> peers;
  peers.reserve(conn_of_server_.size());
  for (const auto& [s, conn] : conn_of_server_) peers.push_back(s);
  for (const std::uint32_t s : peers) {
    const auto it = conn_of_server_.find(s);
    if (it != conn_of_server_.end()) queue_frame(*it->second, encode_shutdown());
  }
  flush_all_blocking(5.0);
  std::sort(digests_.begin(), digests_.end(),
            [](const PeerDigest& a, const PeerDigest& b) { return a.server < b.server; });
  return digests_;
}

// --- Outbox ------------------------------------------------------------------

void SocketScheduler::send(NodeId src, NodeId dst, Envelope env) {
  send_impl(src, dst, std::move(env), /*replay=*/false);
}

void SocketScheduler::send_replay(NodeId src, NodeId dst, Envelope env) {
  send_impl(src, dst, std::move(env), /*replay=*/true);
}

void SocketScheduler::send_impl(NodeId src, NodeId dst, Envelope env, bool replay) {
  if (hosted(dst)) {
    LocalEvent ev;
    ev.delivery = Delivery{src, dst, std::move(env), replay};
    queue_.push_back(std::move(ev));
    return;
  }
  if (dst.kind != NodeId::Kind::kServer) return;  // clients live with the coordinator
  if (dst.id >= peer_crashed_.size() || peer_crashed_[dst.id] != 0) {
    return;  // deliveries to a dead node are lost — the SimNet crash semantics
  }
  Conn* conn = conn_for_server(dst.id);
  if (conn != nullptr) queue_frame(*conn, encode_envelope(src, dst, replay, env));
}

// --- Connections -------------------------------------------------------------

SocketScheduler::Conn* SocketScheduler::conn_for_server(std::uint32_t server) {
  const auto it = conn_of_server_.find(server);
  if (it != conn_of_server_.end()) return it->second;
  if (server >= opts_.addrs.size()) return nullptr;
  // Dial-on-demand with retry: the peer process provisions the identical
  // cluster before it listens, so "connection refused" usually just means
  // "still provisioning".
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opts_.connect_timeout_s);
  for (;;) {
    const int fd = dial_once(opts_.addrs[server]);
    if (fd >= 0) {
      set_nonblocking(fd);
      Conn* conn = adopt_fd(fd, static_cast<std::int64_t>(server));
      conn_of_server_[server] = conn;
      queue_frame(*conn, encode_hello(NodeId::server(ServerId{opts_.self})));
      return conn;
    }
    if (Clock::now() >= deadline) {
      throw std::runtime_error("socket scheduler: could not connect to server " +
                               std::to_string(server) + " at " + opts_.addrs[server]);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

SocketScheduler::Conn* SocketScheduler::adopt_fd(int fd, std::int64_t peer_server) {
  auto owned = std::make_unique<Conn>();
  owned->fd = fd;
  owned->peer_server = peer_server;
  Conn* conn = owned.get();
  conns_.push_back(std::move(owned));
  poller_.add(fd, [this, conn](int, short revents) { handle_readable(*conn, revents); });
  return conn;
}

void SocketScheduler::queue_frame(Conn& conn, const Bytes& frame) {
  conn.wbuf.insert(conn.wbuf.end(), frame.begin(), frame.end());
  flush_conn(conn);
  // The conn may have been dropped on a write error; callers must not touch
  // it after queue_frame.
}

bool SocketScheduler::flush_conn(Conn& conn) {
  while (conn.wpos < conn.wbuf.size()) {
    // MSG_NOSIGNAL: a peer that died mid-round must surface as EPIPE and a
    // dropped conn, not as a SIGPIPE that kills this process.
    const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.wpos,
                             conn.wbuf.size() - conn.wpos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.wpos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      poller_.set_want_write(conn.fd, true);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    drop_conn(conn, "write error");
    return false;
  }
  conn.wbuf.clear();
  conn.wpos = 0;
  poller_.set_want_write(conn.fd, false);
  return true;
}

void SocketScheduler::handle_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained
    }
    adopt_fd(fd, /*peer_server=*/-1);  // identity arrives with the HELLO frame
  }
}

void SocketScheduler::handle_readable(Conn& conn, short revents) {
  if ((revents & POLLOUT) != 0) {
    if (!flush_conn(conn)) return;  // dropped on write error
  }
  if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) return;
  std::uint8_t buf[16384];
  for (;;) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.reader.feed(BytesView(buf, static_cast<std::size_t>(n)));
      for (;;) {
        std::optional<Bytes> payload;
        try {
          payload = conn.reader.next();
        } catch (const DecodeError&) {
          // An oversized length prefix desynchronizes the stream for good:
          // the connection is unusable, not just this frame.
          drop_conn(conn, "oversized frame");
          return;
        }
        if (!payload.has_value()) break;
        try {
          handle_frame(conn, decode_frame(*payload));
        } catch (const DecodeError&) {
          // A malformed frame is dropped; later frames are still delimited
          // correctly by the length prefixes, so the connection survives.
        }
      }
      continue;
    }
    if (n == 0) {
      drop_conn(conn, "peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    drop_conn(conn, "read error");
    return;
  }
}

void SocketScheduler::handle_frame(Conn& conn, const Frame& frame) {
  switch (frame.kind) {
    case FrameKind::kHello: {
      if (frame.hello_node.kind != NodeId::Kind::kServer ||
          frame.hello_node.id >= peer_crashed_.size()) {
        return;
      }
      const std::uint32_t s = frame.hello_node.id;
      conn.peer_server = static_cast<std::int64_t>(s);
      conn_of_server_[s] = &conn;  // a reconnect supersedes any stale mapping
      if (peer_crashed_[s] != 0) {
        peer_crashed_[s] = 0;
        if (!finished_ && !shutdown_) {
          LocalEvent ev;
          ev.is_control = true;
          ev.control.kind = engine::ControlEvent::Kind::kRecover;
          ev.control.node = NodeId::server(ServerId{s});
          queue_.push_back(std::move(ev));
        }
      }
      return;
    }
    case FrameKind::kEnvelope: {
      if (finished_ || !hosted(frame.dst)) return;  // late or misrouted
      LocalEvent ev;
      ev.delivery = Delivery{frame.src, frame.dst, frame.envelope, frame.replay};
      queue_.push_back(std::move(ev));
      return;
    }
    case FrameKind::kApplied: {
      // Cohort → coordinator only; bounds-checked here, epoch-checked by
      // the pipeline (both are untrusted wire input).
      if (finished_ || opts_.self != 0 || frame.server >= peer_crashed_.size()) return;
      LocalEvent ev;
      ev.is_control = true;
      ev.control.kind = engine::ControlEvent::Kind::kPeerApplied;
      ev.control.node = NodeId::server(ServerId{frame.server});
      ev.control.tag = frame.epoch;
      queue_.push_back(std::move(ev));
      return;
    }
    case FrameKind::kShutdown:
      shutdown_ = true;
      return;
    case FrameKind::kDigestQuery: {
      if (frame.server != opts_.self || cluster_->is_crashed(ServerId{opts_.self})) {
        return;
      }
      const Server& server = cluster_->server(ServerId{opts_.self});
      PeerDigest digest;
      digest.server = opts_.self;
      digest.log_height = server.log().size();
      digest.log_head = server.log().head_hash();
      digest.shard_root = server.shard().merkle_root();
      queue_frame(conn, encode_digest_reply(digest));
      return;
    }
    case FrameKind::kDigestReply: {
      for (PeerDigest& d : digests_) {
        if (d.server == frame.digest.server) {
          d = frame.digest;
          return;
        }
      }
      digests_.push_back(frame.digest);
      return;
    }
  }
}

void SocketScheduler::drop_conn(Conn& conn, const char* why) {
  const std::int64_t peer = conn.peer_server;
  poller_.remove(conn.fd);
  ::close(conn.fd);
  conn.fd = -1;
  if (peer >= 0) {
    const auto it = conn_of_server_.find(static_cast<std::uint32_t>(peer));
    if (it != conn_of_server_.end() && it->second == &conn) conn_of_server_.erase(it);
  }
  for (auto it = conns_.begin(); it != conns_.end(); ++it) {
    if (it->get() == &conn) {
      conns_.erase(it);  // destroys conn — nothing below may touch it
      break;
    }
  }
  if (peer < 0 || finished_ || shutdown_) return;
  if (opts_.self == 0) {
    // The coordinator maps a lost peer onto the engine's crash model: its
    // local replica is destroyed (volatile state lost) and the round log —
    // shared on disk — is what a reconnecting peer recovers from.
    const auto s = static_cast<std::uint32_t>(peer);
    if (peer_crashed_[s] == 0) {
      peer_crashed_[s] = 1;
      std::fprintf(stderr, "[socket:0] server %u connection lost (%s); treating as crash\n",
                   s, why);
      LocalEvent ev;
      ev.is_control = true;
      ev.control.kind = engine::ControlEvent::Kind::kCrash;
      ev.control.node = NodeId::server(ServerId{s});
      queue_.push_back(std::move(ev));
    }
  } else if (peer == 0) {
    std::fprintf(stderr, "[socket:%u] coordinator connection lost (%s); exiting run loop\n",
                 opts_.self, why);
    coordinator_lost_ = true;
  }
}

bool SocketScheduler::drain_local() {
  bool worked = false;
  while (!queue_.empty() && dispatcher_ != nullptr) {
    LocalEvent ev = std::move(queue_.front());
    queue_.pop_front();
    worked = true;
    if (ev.is_control) {
      dispatcher_->on_control(ev.control, *this);
    } else if (ev.delivery.replay) {
      dispatcher_->dispatch_replay(ev.delivery.src, ev.delivery.dst, ev.delivery.env,
                                   *this);
    } else {
      dispatcher_->dispatch(ev.delivery.src, ev.delivery.dst, ev.delivery.env, *this);
    }
  }
  return worked;
}

void SocketScheduler::flush_all_blocking(double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  for (;;) {
    bool pending = false;
    for (std::size_t i = 0; i < conns_.size();) {
      Conn* conn = conns_[i].get();
      const std::size_t before = conns_.size();
      if (conn->wpos < conn->wbuf.size()) flush_conn(*conn);
      if (conns_.size() != before) continue;  // dropped: the index now names the next conn
      if (conn->wpos < conn->wbuf.size()) pending = true;
      ++i;
    }
    if (!pending || Clock::now() >= deadline) return;
    poller_.poll_once(20);
  }
}

}  // namespace fides::net

#include "ofp/server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace ofmtl::ofp::server {

namespace {

// Level-triggered interest masks; EPOLLRDHUP so a peer's half-close wakes
// the loop even when no payload bytes follow.
constexpr std::uint32_t kReadMask = EPOLLIN | EPOLLRDHUP;
/// Bytes per read() call on the loop's stack buffer.
constexpr std::size_t kReadChunk = 16 * 1024;
// A partial maximal frame (64 KiB less a byte) must leave the session's
// reassembly buffer room for more bytes, or a legal stream would overflow
// it; Session::on_bytes splits a read of any size to fit.
static_assert(Session::kReadBufferCap > 0xFFFF);
/// Pending connections the kernel queues on the listening socket.
constexpr int kListenBacklog = 64;
/// Pause before re-arming accept after fd exhaustion (EMFILE/ENFILE):
/// level-triggered epoll would otherwise re-report the pending accept every
/// wake and spin the loop at 100% doing nothing.
constexpr std::uint64_t kAcceptBackoffMs = 100;
/// Reads per EPOLLIN wake before yielding to other sessions (fairness under
/// a firehosing peer; level-triggered epoll re-arms the rest).
constexpr std::size_t kMaxReadsPerEvent = 4;
/// Sink (publish) latency that maps to pressure 1.0: the EWMA of per-batch
/// latency is normalized against this budget.
constexpr double kPublishLatencyBudgetUs = 20000;

}  // namespace

OfpServer::OfpServer(FlowModSink sink, ServerConfig config)
    : sink_(std::move(sink)), config_(std::move(config)) {}

OfpServer::~OfpServer() { stop(); }

std::uint64_t OfpServer::now_ms() const {
  if (config_.hooks.now_ms) return config_.hooks.now_ms();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

FlowModSink OfpServer::instrumented_sink() {
  // Wrap the user sink with publish-latency measurement: the EWMA feeds
  // admission control, so a publisher that slows down (lock contention,
  // giant deltas) shows up as pressure even when queue depth looks fine.
  // Loop-thread-only state; the real clock is used deliberately — latency
  // is a measurement, not a deadline, so a virtual-clock test still works.
  return [this](std::span<const PendingFlowMod> mods,
                std::span<ErrorCode> results) {
    const auto start = std::chrono::steady_clock::now();
    sink_(mods, results);
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    constexpr double kAlpha = 0.2;
    publish_ewma_us_ =
        (1 - kAlpha) * publish_ewma_us_ + kAlpha * static_cast<double>(us);
  };
}

obs::MetricsRegistry& OfpServer::metrics_registry() {
  return config_.metrics != nullptr ? *config_.metrics
                                    : obs::default_registry();
}

int OfpServer::open_listener(std::uint16_t port, int max_pending,
                             std::uint16_t& bound_port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1 ||
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, max_pending) != 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

bool OfpServer::start() {
  if (running_.load(std::memory_order_acquire)) return false;

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (epoll_fd_ < 0 || wake_fd_ < 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    stop_fds();
    return false;
  }
  listen_fd_ = open_listener(config_.port, kListenBacklog, port_);
  if (listen_fd_ < 0) {
    stop_fds();
    return false;
  }
  // Optional stats endpoint: a second listener in the SAME epoll loop, so
  // scrapes serialize with session work and need no extra synchronization.
  if (config_.stats_port >= 0) {
    stats_listen_fd_ = open_listener(
        static_cast<std::uint16_t>(config_.stats_port), 16, stats_port_);
    if (stats_listen_fd_ < 0) {
      stop_fds();
      return false;
    }
  }

  // The server's own health as a metrics provider; the RAII handle
  // unregisters at stop(), so a scrape can never observe a dead server.
  metrics_handle_ = metrics_registry().register_provider(
      [this](obs::MetricsBuilder& b) {
        const ServerStats s = stats();
        b.counter("ofmtl_ofp_sessions_accepted_total",
                  "controller sessions accepted",
                  static_cast<double>(s.sessions_accepted));
        b.counter("ofmtl_ofp_sessions_closed_total",
                  "controller sessions closed",
                  static_cast<double>(s.sessions_closed));
        b.counter("ofmtl_ofp_handshakes_total",
                  "sessions that completed the HELLO handshake",
                  static_cast<double>(s.handshakes));
        b.counter("ofmtl_ofp_frames_rx_total", "OFP frames received",
                  static_cast<double>(s.frames_rx));
        b.counter("ofmtl_ofp_frames_tx_total", "OFP frames sent",
                  static_cast<double>(s.frames_tx));
        b.counter("ofmtl_ofp_flow_mods_ok_total", "flow-mods applied",
                  static_cast<double>(s.flow_mods_ok));
        b.counter("ofmtl_ofp_flow_mods_failed_total", "flow-mods rejected",
                  static_cast<double>(s.flow_mods_failed));
        b.counter("ofmtl_ofp_flow_mods_shed_total",
                  "flow-mods shed by admission control",
                  static_cast<double>(s.flow_mods_shed));
        b.counter("ofmtl_ofp_malformed_frames_total",
                  "frames rejected by the decoder",
                  static_cast<double>(s.malformed_frames));
        b.counter("ofmtl_ofp_bytes_rx_total", "bytes received",
                  static_cast<double>(s.bytes_rx));
        b.counter("ofmtl_ofp_bytes_tx_total", "bytes sent",
                  static_cast<double>(s.bytes_tx));
        b.gauge("ofmtl_ofp_active_sessions", "currently open sessions",
                static_cast<double>(active_sessions()));
        b.gauge("ofmtl_ofp_admission_state",
                "admission state (0 normal, 1 throttle, 2 shed)",
                static_cast<double>(static_cast<int>(admission_state())));
      });

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
  return true;
}

void OfpServer::stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof one);
  }
  if (thread_.joinable()) thread_.join();
  metrics_handle_.reset();
  stop_fds();
}

void OfpServer::stop_fds() {
  for (const auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
  for (const auto& [fd, conn] : stats_conns_) ::close(fd);
  stats_conns_.clear();
  active_sessions_.store(0, std::memory_order_relaxed);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (stats_listen_fd_ >= 0) ::close(stats_listen_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = stats_listen_fd_ = -1;
}

int OfpServer::epoll_timeout_ms(std::uint64_t now) const {
  // Periodic floor so running_ is re-checked even with idle sessions.
  std::uint64_t timeout = 200;
  for (const auto& [fd, conn] : connections_) {
    if (const auto deadline = conn->session.next_deadline_ms()) {
      const auto wait = *deadline > now ? *deadline - now : 0;
      if (wait < timeout) timeout = wait;
    }
  }
  if (accept_paused_) {
    const auto wait = accept_resume_ms_ > now ? accept_resume_ms_ - now : 0;
    if (wait < timeout) timeout = wait;
  }
  return static_cast<int>(timeout);
}

void OfpServer::loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  std::vector<int> doomed;

  while (running_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(epoll_fd_, events, kMaxEvents, epoll_timeout_ms(now_ms()));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone: shutting down
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        (void)!::read(wake_fd_, &drained, sizeof drained);
        continue;
      }
      if (fd == listen_fd_) {
        accept_ready(now_ms());
        continue;
      }
      if (fd == stats_listen_fd_) {
        stats_accept_ready();
        continue;
      }
      if (stats_conns_.contains(fd)) {
        stats_event(fd, events[i].events);
        continue;
      }
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this wake
      Connection& conn = *it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_connection(fd, CloseReason::kPeerClosed);
        continue;
      }
      if (events[i].events & (EPOLLIN | EPOLLRDHUP)) {
        connection_readable(fd, conn);
        if (!connections_.contains(fd)) continue;
      }
      if (events[i].events & EPOLLOUT) {
        flush_output(fd, conn);
        if (!connections_.contains(fd)) continue;
      }
      if (conn.session.wants_close()) {
        close_connection(fd, CloseReason::kPeerClosed);
      }
    }

    // Liveness ticks + deferred closes, outside the event walk.
    const auto now = now_ms();
    sample_pressure(now);
    if (accept_paused_ && now >= accept_resume_ms_) resume_accept();
    doomed.clear();
    for (auto& [fd, conn] : connections_) {
      if (const auto deadline = conn->session.next_deadline_ms();
          deadline.has_value() && now >= *deadline) {
        conn->session.on_tick(now);
        flush_output(fd, *conn);
        sync_counters(*conn);
      }
      if (conn->session.wants_close()) doomed.push_back(fd);
    }
    for (const int fd : doomed) close_connection(fd, CloseReason::kPeerClosed);
  }

  // Shutdown: every session closes as kServerShutdown.
  for (const auto& [fd, conn] : connections_) {
    sync_counters(*conn);
    ::close(fd);
    stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
  }
  connections_.clear();
  active_sessions_.store(0, std::memory_order_relaxed);
}

void OfpServer::accept_ready(std::uint64_t now) {
  if (accept_paused_) return;
  while (true) {
    const int fd = config_.hooks.accept4
                       ? config_.hooks.accept4(listen_fd_)
                       : ::accept4(listen_fd_, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      // fd exhaustion: the pending connection stays queued, and
      // level-triggered epoll would re-report it every wake — a 100%-CPU
      // accept spin. Pause accepting for a backoff instead; closes
      // elsewhere free fds in the meantime.
      if (errno == EMFILE || errno == ENFILE) pause_accept(now);
      // EAGAIN: drained. Aborted handshakes: nothing to do this wake.
      return;
    }
    if (connections_.size() >= config_.max_sessions) {
      stats_.sessions_rejected.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Connection>(Session{
        next_session_id_++, config_.session, instrumented_sink(), control_,
        now_ms()});
    epoll_event ev{};
    ev.events = kReadMask;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    stats_.sessions_accepted.fetch_add(1, std::memory_order_relaxed);
    Connection& ref = *conn;
    connections_.emplace(fd, std::move(conn));
    active_sessions_.fetch_add(1, std::memory_order_relaxed);
    flush_output(fd, ref);  // our HELLO
  }
}

void OfpServer::stats_accept_ready() {
  while (true) {
    const int fd = ::accept4(stats_listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN: drained; errors: nothing to serve
    if (stats_conns_.size() >= 16) {  // bounded scrape state
      ::close(fd);
      continue;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    stats_conns_.emplace(fd, StatsConn{});
  }
}

std::string OfpServer::stats_response(const std::string& request) {
  // Only the request line matters: "GET <path> HTTP/1.x". Anything else is
  // answered, never crashes the loop — the endpoint is read-only.
  std::string path;
  if (request.compare(0, 4, "GET ") == 0) {
    const std::size_t end = request.find(' ', 4);
    if (end != std::string::npos) path = request.substr(4, end - 4);
  }
  std::string body;
  const char* content_type = "text/plain; version=0.0.4; charset=utf-8";
  const char* status = "200 OK";
  if (path == "/metrics" || path == "/") {
    body = metrics_registry().render_prometheus();
  } else if (path == "/metrics.json") {
    body = metrics_registry().render_json();
    content_type = "application/json";
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }
  std::string response = "HTTP/1.0 ";
  response += status;
  response += "\r\nContent-Type: ";
  response += content_type;
  response += "\r\nContent-Length: ";
  response += std::to_string(body.size());
  response += "\r\nConnection: close\r\n\r\n";
  response += body;
  return response;
}

void OfpServer::stats_event(int fd, std::uint32_t events) {
  auto it = stats_conns_.find(fd);
  if (it == stats_conns_.end()) return;
  StatsConn& conn = it->second;
  if (events & (EPOLLHUP | EPOLLERR)) {
    stats_close(fd);
    return;
  }
  if (events & (EPOLLIN | EPOLLRDHUP)) {
    char buf[1024];
    while (true) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n > 0) {
        conn.request.append(buf, static_cast<std::size_t>(n));
        if (conn.request.size() > 4096) {  // hostile header flood: drop
          stats_close(fd);
          return;
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n == 0 && conn.request.find("\r\n\r\n") == std::string::npos &&
          conn.request.find('\n') == std::string::npos) {
        stats_close(fd);  // peer gone before a full request line
        return;
      }
      break;
    }
    if (conn.response.empty() &&
        (conn.request.find("\r\n\r\n") != std::string::npos ||
         conn.request.find('\n') != std::string::npos)) {
      conn.response = stats_response(conn.request);
      epoll_event ev{};
      ev.events = EPOLLOUT | EPOLLRDHUP;
      ev.data.fd = fd;
      (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
    }
  }
  if (!conn.response.empty()) {
    while (conn.sent < conn.response.size()) {
      const ssize_t n =
          ::send(fd, conn.response.data() + conn.sent,
                 conn.response.size() - conn.sent, MSG_NOSIGNAL);
      if (n > 0) {
        conn.sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      stats_close(fd);  // EPIPE and friends
      return;
    }
    stats_close(fd);  // fully served; HTTP/1.0 close semantics
  }
}

void OfpServer::stats_close(int fd) {
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  stats_conns_.erase(fd);
}

void OfpServer::pause_accept(std::uint64_t now) {
  if (accept_paused_) return;
  accept_paused_ = true;
  accept_resume_ms_ = now + kAcceptBackoffMs;
  stats_.accept_pauses.fetch_add(1, std::memory_order_relaxed);
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
}

void OfpServer::resume_accept() {
  accept_paused_ = false;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
}

void OfpServer::connection_readable(int fd, Connection& conn) {
  std::uint8_t buf[kReadChunk];
  bool peer_closed = false;
  for (std::size_t round = 0; round < kMaxReadsPerEvent; ++round) {
    const ssize_t n = config_.hooks.read
                          ? config_.hooks.read(fd, buf, kReadChunk)
                          : ::read(fd, buf, kReadChunk);
    if (n > 0) {
      stats_.bytes_rx.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
      const bool was_handshaking =
          conn.session.state() == Session::State::kAwaitHello;
      conn.session.on_bytes({buf, static_cast<std::size_t>(n)}, now_ms());
      if (was_handshaking &&
          conn.session.state() == Session::State::kSteady) {
        stats_.handshakes.fetch_add(1, std::memory_order_relaxed);
      }
      if (static_cast<std::size_t>(n) < kReadChunk) break;  // drained
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    peer_closed = true;  // ECONNRESET and friends: treat as gone
    break;
  }
  if (peer_closed) conn.session.on_peer_closed(now_ms());
  sync_counters(conn);
  flush_output(fd, conn);
}

void OfpServer::flush_output(int fd, Connection& conn) {
  while (true) {
    const auto pending = conn.session.pending_output();
    if (pending.empty()) break;
    // MSG_NOSIGNAL: a peer that RSTs between our poll and this send must
    // surface as EPIPE (handled below), not a process-killing SIGPIPE.
    const ssize_t n =
        config_.hooks.send
            ? config_.hooks.send(fd, pending.data(), pending.size())
            : ::send(fd, pending.data(), pending.size(), MSG_NOSIGNAL);
    if (n > 0) {
      stats_.bytes_tx.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
      conn.session.consume_output(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        update_interest(fd, conn);
      }
      return;
    }
    // EPIPE/ECONNRESET: the peer is gone, nothing left to flush.
    conn.session.mark_closed();
    return;
  }
  if (conn.want_write) {
    conn.want_write = false;
    update_interest(fd, conn);
  }
}

void OfpServer::update_interest(int fd, Connection& conn) {
  epoll_event ev{};
  ev.events = kReadMask | (conn.want_write ? EPOLLOUT : 0U);
  ev.data.fd = fd;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void OfpServer::close_connection(int fd, CloseReason fallback) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  sync_counters(conn);
  const auto reason = conn.session.close_reason() != CloseReason::kNone
                          ? conn.session.close_reason()
                          : fallback;
  switch (reason) {
    case CloseReason::kEchoTimeout:
      stats_.echo_timeouts.fetch_add(1, std::memory_order_relaxed);
      break;
    case CloseReason::kBackpressure:
      stats_.backpressure_closes.fetch_add(1, std::memory_order_relaxed);
      break;
    case CloseReason::kHandshakeFailed:
    case CloseReason::kProtocolError:
    case CloseReason::kReadOverflow:
      stats_.protocol_closes.fetch_add(1, std::memory_order_relaxed);
      break;
    case CloseReason::kOverload:
      stats_.overload_closes.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
  stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t dead_id = conn.session.id();
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(it);
  active_sessions_.fetch_sub(1, std::memory_order_relaxed);

  // Failover: when the master died, the lowest-id surviving slave is
  // promoted and learns it via an unsolicited ROLE_REPLY.
  if (const auto promoted = control_.roles.on_session_closed(dead_id)) {
    for (auto& [pfd, pconn] : connections_) {
      if (pconn->session.id() != *promoted) continue;
      pconn->session.notify_role(Role::kMaster, control_.roles.generation_id(),
                                 now_ms());
      stats_.promotions.fetch_add(1, std::memory_order_relaxed);
      flush_output(pfd, *pconn);
      sync_counters(*pconn);
      break;
    }
  }
}

void OfpServer::sample_pressure(std::uint64_t now) {
  control_.admission.on_pressure_sample(
      publish_ewma_us_ / kPublishLatencyBudgetUs, now);
  admission_state_.store(static_cast<std::uint8_t>(control_.admission.state()),
                         std::memory_order_relaxed);
}

void OfpServer::sync_counters(Connection& conn) {
  const auto& c = conn.session.counters();
  auto bump = [](std::atomic<std::uint64_t>& stat, std::uint64_t now_value,
                 std::uint64_t& reported) {
    stat.fetch_add(now_value - reported, std::memory_order_relaxed);
    reported = now_value;
  };
  bump(stats_.frames_rx, c.frames_rx, conn.reported.frames_rx);
  bump(stats_.frames_tx, c.frames_tx, conn.reported.frames_tx);
  bump(stats_.flow_mods_ok, c.flow_mods_ok, conn.reported.flow_mods_ok);
  bump(stats_.flow_mods_failed, c.flow_mods_failed,
       conn.reported.flow_mods_failed);
  bump(stats_.malformed_frames, c.malformed_frames,
       conn.reported.malformed_frames);
  bump(stats_.flow_mods_shed, c.flow_mods_shed, conn.reported.flow_mods_shed);
  bump(stats_.role_changes, c.role_changes, conn.reported.role_changes);
  bump(stats_.resyncs, c.resyncs, conn.reported.resyncs);
}

ServerStats OfpServer::stats() const {
  ServerStats out;
  out.sessions_accepted = stats_.sessions_accepted.load(std::memory_order_relaxed);
  out.sessions_rejected = stats_.sessions_rejected.load(std::memory_order_relaxed);
  out.sessions_closed = stats_.sessions_closed.load(std::memory_order_relaxed);
  out.handshakes = stats_.handshakes.load(std::memory_order_relaxed);
  out.frames_rx = stats_.frames_rx.load(std::memory_order_relaxed);
  out.frames_tx = stats_.frames_tx.load(std::memory_order_relaxed);
  out.flow_mods_ok = stats_.flow_mods_ok.load(std::memory_order_relaxed);
  out.flow_mods_failed = stats_.flow_mods_failed.load(std::memory_order_relaxed);
  out.malformed_frames = stats_.malformed_frames.load(std::memory_order_relaxed);
  out.echo_timeouts = stats_.echo_timeouts.load(std::memory_order_relaxed);
  out.backpressure_closes =
      stats_.backpressure_closes.load(std::memory_order_relaxed);
  out.protocol_closes = stats_.protocol_closes.load(std::memory_order_relaxed);
  out.overload_closes = stats_.overload_closes.load(std::memory_order_relaxed);
  out.bytes_rx = stats_.bytes_rx.load(std::memory_order_relaxed);
  out.bytes_tx = stats_.bytes_tx.load(std::memory_order_relaxed);
  out.flow_mods_shed = stats_.flow_mods_shed.load(std::memory_order_relaxed);
  out.role_changes = stats_.role_changes.load(std::memory_order_relaxed);
  out.resyncs = stats_.resyncs.load(std::memory_order_relaxed);
  out.promotions = stats_.promotions.load(std::memory_order_relaxed);
  out.accept_pauses = stats_.accept_pauses.load(std::memory_order_relaxed);
  return out;
}

}  // namespace ofmtl::ofp::server

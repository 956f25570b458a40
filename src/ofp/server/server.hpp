// The served control-plane endpoint: a dependency-free epoll event loop
// terminating OFP framing over TCP for many concurrent controller sessions.
// One loop thread owns every socket and every Session state machine; flow-mod
// batches are applied inline through the FlowModSink (for the production
// sink, one left-right publish per batch — writers serialize on the
// publisher's mutex, data-plane readers stay lock-free, so control churn
// never stalls classification). All peer-facing failure modes — partial
// frames, slow readers, mid-message disconnects, malformed bytes — degrade
// to ERROR replies or graceful per-session closes; no input crosses the
// event loop as an exception.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "ofp/server/control_plane.hpp"
#include "ofp/server/session.hpp"

namespace ofmtl::ofp::server {

/// Injectable I/O + clock surface. Null members mean the real syscall /
/// steady clock; tests swap in a virtual clock (deterministic liveness
/// deadlines without sleeps) and fault-injecting syscalls (EMFILE storms,
/// partial reads/writes) without touching the loop's logic.
struct IoHooks {
  /// Monotonic milliseconds for every session deadline.
  std::function<std::uint64_t()> now_ms;
  /// accept4(listen_fd) -> connection fd, or -1 with errno set.
  std::function<int(int)> accept4;
  /// read(fd, buf, len) -> bytes, 0 on EOF, or -1 with errno set.
  std::function<long(int, void*, std::size_t)> read;
  /// send(fd, buf, len) -> bytes, or -1 with errno set. The default uses
  /// MSG_NOSIGNAL: a racing peer RST must surface as EPIPE, never SIGPIPE.
  std::function<long(int, const void*, std::size_t)> send;
};

struct ServerConfig {
  /// Bind address; controller tests and the soak tool use loopback.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Accepted sessions beyond this are immediately closed (bounded state).
  std::size_t max_sessions = 64;
  /// Per-session liveness probing; the buffer caps, timeouts and batch
  /// bound are Session's constants.
  SessionConfig session{};
  /// Injectable clock + syscalls; defaults are the real thing.
  IoHooks hooks{};
  /// Read-only stats endpoint, served from the SAME epoll loop: -1 keeps
  /// it off, 0 binds an ephemeral port (read back via stats_port()), any
  /// other value binds that port. Serves GET /metrics (Prometheus text)
  /// and GET /metrics.json.
  int stats_port = -1;
  /// Registry the endpoint renders; null = obs::default_registry(). The
  /// server also registers its own ofmtl_ofp_* provider here for its
  /// lifetime.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Monotonic server-wide counters, sampled racily by stats().
struct ServerStats {
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_rejected = 0;  ///< over max_sessions
  std::uint64_t sessions_closed = 0;
  std::uint64_t handshakes = 0;         ///< sessions that reached kSteady
  std::uint64_t frames_rx = 0;
  std::uint64_t frames_tx = 0;
  std::uint64_t flow_mods_ok = 0;
  std::uint64_t flow_mods_failed = 0;
  std::uint64_t malformed_frames = 0;
  std::uint64_t echo_timeouts = 0;
  std::uint64_t backpressure_closes = 0;
  std::uint64_t protocol_closes = 0;  ///< handshake/framing/overflow closes
  std::uint64_t overload_closes = 0;  ///< admission rejection budget exhausted
  std::uint64_t bytes_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t flow_mods_shed = 0;  ///< rejected by admission control
  std::uint64_t role_changes = 0;    ///< accepted mutating role requests
  std::uint64_t resyncs = 0;         ///< completed resync diffs
  std::uint64_t promotions = 0;      ///< slaves promoted on master loss
  std::uint64_t accept_pauses = 0;   ///< EMFILE/ENFILE accept backoffs
};

class OfpServer {
 public:
  /// `sink` receives every session's flow-mod batches on the loop thread.
  explicit OfpServer(FlowModSink sink, ServerConfig config = {});
  ~OfpServer();

  OfpServer(const OfpServer&) = delete;
  OfpServer& operator=(const OfpServer&) = delete;

  /// Bind + listen + spawn the event loop. False (with errno intact) when
  /// the socket setup fails; never throws.
  [[nodiscard]] bool start();

  /// Graceful shutdown: wake the loop, close every session, join. Idempotent.
  void stop();

  /// The bound TCP port (resolved after start() for ephemeral binds).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// The bound stats-endpoint port (0 when the endpoint is disabled).
  [[nodiscard]] std::uint16_t stats_port() const { return stats_port_; }
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] ServerStats stats() const;
  /// Currently open sessions (loop-thread count, sampled racily).
  [[nodiscard]] std::size_t active_sessions() const {
    return active_sessions_.load(std::memory_order_relaxed);
  }
  /// Current admission state (loop-thread value, sampled racily for tests
  /// and metrics; transitions are loop-thread-only).
  [[nodiscard]] AdmissionState admission_state() const {
    return static_cast<AdmissionState>(
        admission_state_.load(std::memory_order_relaxed));
  }

 private:
  struct Connection {
    explicit Connection(Session session) : session(std::move(session)) {}
    Session session;
    bool want_write = false;  // current EPOLLOUT interest
    /// Session counter values already folded into the server atomics, so
    /// aggregation is delta-based and sessions can die any time.
    Session::Counters reported{};
  };

  /// One in-flight stats scrape: tiny request buffer in, rendered response
  /// out. HTTP/1.0, connection-close semantics — no keep-alive state.
  struct StatsConn {
    std::string request;
    std::string response;
    std::size_t sent = 0;
  };

  void loop();
  void accept_ready(std::uint64_t now);
  /// socket/bind/listen on bind_address:`port`, registered for EPOLLIN;
  /// the listening fd (its bound port in `bound_port`), or -1.
  [[nodiscard]] int open_listener(std::uint16_t port, int max_pending,
                                  std::uint16_t& bound_port);
  void stats_accept_ready();
  void stats_event(int fd, std::uint32_t events);
  void stats_close(int fd);
  [[nodiscard]] std::string stats_response(const std::string& request);
  [[nodiscard]] obs::MetricsRegistry& metrics_registry();
  /// EMFILE/ENFILE: drop the listen fd from epoll and re-arm after backoff.
  void pause_accept(std::uint64_t now);
  void resume_accept();
  void connection_readable(int fd, Connection& conn);
  /// Flush session output to the socket; toggles EPOLLOUT interest.
  void flush_output(int fd, Connection& conn);
  void close_connection(int fd, CloseReason fallback);
  void update_interest(int fd, Connection& conn);
  /// Fold a session's counter deltas into the server-wide atomics.
  void sync_counters(Connection& conn);
  /// Feed the sink-latency EWMA, over its budget, to admission control.
  void sample_pressure(std::uint64_t now);
  /// Close every fd this server owns (post-join / failed-start cleanup).
  void stop_fds();
  [[nodiscard]] int epoll_timeout_ms(std::uint64_t now_ms) const;
  [[nodiscard]] std::uint64_t now_ms() const;
  /// The per-session sink: wraps sink_ with publish-latency measurement.
  [[nodiscard]] FlowModSink instrumented_sink();

  FlowModSink sink_;
  ServerConfig config_;
  ControlPlane control_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int stats_listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t stats_port_ = 0;
  std::unordered_map<int, StatsConn> stats_conns_;
  obs::MetricsRegistry::ProviderHandle metrics_handle_;
  std::uint64_t next_session_id_ = 1;
  bool accept_paused_ = false;
  std::uint64_t accept_resume_ms_ = 0;
  double publish_ewma_us_ = 0;  // loop-thread-only
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> active_sessions_{0};
  std::atomic<std::uint8_t> admission_state_{0};

  struct AtomicStats {
    std::atomic<std::uint64_t> sessions_accepted{0};
    std::atomic<std::uint64_t> sessions_rejected{0};
    std::atomic<std::uint64_t> sessions_closed{0};
    std::atomic<std::uint64_t> handshakes{0};
    std::atomic<std::uint64_t> frames_rx{0};
    std::atomic<std::uint64_t> frames_tx{0};
    std::atomic<std::uint64_t> flow_mods_ok{0};
    std::atomic<std::uint64_t> flow_mods_failed{0};
    std::atomic<std::uint64_t> malformed_frames{0};
    std::atomic<std::uint64_t> echo_timeouts{0};
    std::atomic<std::uint64_t> backpressure_closes{0};
    std::atomic<std::uint64_t> protocol_closes{0};
    std::atomic<std::uint64_t> overload_closes{0};
    std::atomic<std::uint64_t> bytes_rx{0};
    std::atomic<std::uint64_t> bytes_tx{0};
    std::atomic<std::uint64_t> flow_mods_shed{0};
    std::atomic<std::uint64_t> role_changes{0};
    std::atomic<std::uint64_t> resyncs{0};
    std::atomic<std::uint64_t> promotions{0};
    std::atomic<std::uint64_t> accept_pauses{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace ofmtl::ofp::server

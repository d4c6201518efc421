#ifndef SCC_SERVER_SERVER_H_
#define SCC_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/protocol.h"
#include "server/service.h"

// TCP front-end for QueryService: length-prefixed frames (protocol.h)
// over a fixed-size epoll reactor pool feeding the shared work-stealing
// pool (docs/SERVICE.md).
//
// Connection model: N reactor threads (ServerOptions::reactor_threads)
// each own one epoll set; accepted connections are assigned round-robin
// and stay with their reactor for life, so resident thread count is
// O(reactors), not O(connections) — a thousand idle connections cost a
// thousand fds and nothing else. Sockets are non-blocking; each
// connection carries a read-side state machine (partial-frame
// reassembly across reads) and a write-side state machine (a bounded
// response queue flushed opportunistically at queue time and on
// EPOLLOUT, consecutive frames corked into one writev).
//
// Pipelining: a connection may have any number of request frames in
// flight; each admitted frame becomes one pool task, and responses are
// written in *completion* order, correlated by request_id — clients
// that pipeline (PipelinedClient) must match responses by id, not
// position. Admission control runs on the reactor thread: a shed
// request is answered straight from the reactor without ever touching
// the pool (bounded overload behavior: excess load costs a frame decode
// and a few atomics, nothing more).
//
// Lifecycle: the reading reactor is the only thread that ever close()s
// a connection's fd (pool threads request teardown via shutdown() + a
// close list), so a stale epoll event can never act on a recycled
// descriptor — events carry a per-connection generation id, not the fd.
// A connection with responses still pending (pool tasks running, or
// queued bytes unflushed) survives peer EOF until it drains; write
// errors and write-queue overflow (slow reader) tear it down
// immediately and are counted (server.write_errors /
// server.write_queue_overflow).
//
// Shutdown: Stop() stops accepting, half-closes every connection
// (SHUT_RD — no new requests, responses still flow), waits for every
// in-flight pool task to finish, gives the reactors a bounded grace
// window to flush + reap, then joins them and closes whatever remains.

namespace scc {
namespace server {

struct ServerOptions {
  /// Listen address. Loopback by default: scc_serve simulates a
  /// production topology, it does not harden one.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is available from port() after
  /// Start().
  uint16_t port = 0;
  /// Reactor (epoll) threads. Connections are assigned round-robin at
  /// accept time. 0 = 2.
  unsigned reactor_threads = 2;
  /// Per-connection response-queue cap. A connection whose un-flushed
  /// responses exceed this (a reader slower than its own request rate)
  /// is disconnected rather than buffered without bound.
  size_t max_write_queue_bytes = size_t(8) << 20;
  /// SO_SNDBUF for accepted sockets (0 = kernel default + autotuning).
  /// Bounding it keeps slow-reader backpressure in the server's write
  /// queue — where the cap above governs — instead of letting the
  /// kernel buffer megabytes per connection.
  size_t sndbuf_bytes = 0;
};

class Server {
 public:
  Server(QueryService* service, ServerOptions options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, starts the reactor pool. Fails with IOError on
  /// socket errors (port in use, bad host).
  Status Start();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  /// Graceful shutdown: stop accepting, half-close and drain every
  /// connection, join the reactors. Idempotent.
  void Stop();

  /// Currently open client connections.
  size_t connection_count() const;

  // Always-on local counters (the server.* telemetry family mirrors
  // them when telemetry is enabled; these stay exact regardless).
  uint64_t write_errors() const { return write_errors_.Get(); }
  uint64_t write_queue_overflows() const {
    return write_queue_overflows_.Get();
  }

 private:
  /// One client connection. Read-side state (rbuf/rpos/read_closed) is
  /// touched only by the owning reactor thread; write-side state and fd
  /// transitions are guarded by mu so pool threads can queue and flush
  /// responses concurrently with reactor activity.
  struct Conn {
    uint64_t id = 0;      // epoll event cookie; never reused
    size_t reactor = 0;   // owning reactor index
    std::mutex mu;        // guards fd/write state below
    int fd = -1;          // -1 once closed (reactor thread only closes)
    bool epollout_armed = false;
    bool close_scheduled = false;  // shutdown() issued, close pending
    std::deque<std::vector<uint8_t>> write_q;  // framed responses
    size_t write_q_bytes = 0;
    size_t write_off = 0;  // bytes of write_q.front() already sent

    // Reactor-thread-only read state (read_closed is written by the
    // reactor but also read by pool tasks in OnTaskDone, hence atomic).
    std::vector<uint8_t> rbuf;  // partial-frame reassembly buffer
    size_t rpos = 0;            // consumed prefix of rbuf
    std::atomic<bool> read_closed{false};  // peer EOF / fatal read error

    // Admitted queries dispatched to the pool, response not yet queued.
    std::atomic<size_t> pending{0};
  };

  struct Reactor {
    int epfd = -1;
    int wake_fd = -1;  // eventfd: close-list and stop wakeups
    std::thread thread;
    std::mutex mu;  // guards conns + close_list
    std::unordered_map<uint64_t, std::shared_ptr<Conn>> conns;
    std::vector<uint64_t> close_list;  // ids awaiting reactor-side close
  };

  void ReactorLoop(size_t idx);
  void HandleAccept();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  void HandleWritable(const std::shared_ptr<Conn>& conn);
  /// Parses every complete frame in conn->rbuf and dispatches it; one
  /// pool submission per read burst (batched when several frames were
  /// pipelined into it).
  void DispatchFrames(const std::shared_ptr<Conn>& conn);
  /// Encodes, enqueues (bounded), and opportunistically flushes one
  /// response. Any-thread safe; drops silently once the conn is closing.
  void QueueResponse(const std::shared_ptr<Conn>& conn,
                     const Response& resp);
  /// Corked writev of as much queued data as the socket accepts.
  /// Returns false on fatal write error (caller tears down). Requires
  /// conn->mu held and conn->fd >= 0.
  bool FlushLocked(Conn* conn);
  /// Requests connection teardown from any thread: shuts the socket
  /// down and hands the close to the owning reactor.
  void ScheduleClose(const std::shared_ptr<Conn>& conn);
  /// Reactor-thread-only: unregisters and closes the fd now.
  void CloseNow(const std::shared_ptr<Conn>& conn);
  /// Closes conn->fd if it is open and drops it from the connection
  /// counts. Requires conn->mu held.
  void CloseFdLocked(Conn* conn);
  /// Pool-task completion: drops the pending count and reaps the
  /// connection if it finished draining after peer EOF.
  void OnTaskDone(const std::shared_ptr<Conn>& conn);
  /// True once a peer-EOF'd connection has nothing left to answer or
  /// flush and no close underway: it can be reaped. Requires conn.mu.
  static bool DrainedLocked(const Conn& conn);
  void ArmWritableLocked(Conn* conn);
  void WakeReactor(size_t idx);

  QueryService* service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> accepting_{false};
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::atomic<uint64_t> next_conn_id_{2};  // 0 = listen, 1 = wake
  std::atomic<size_t> next_reactor_{0};    // round-robin accept target
  std::atomic<size_t> open_connections_{0};

  // Global in-flight pool tasks across all connections; Stop() waits on
  // this before joining reactors so no task outlives the server.
  std::atomic<size_t> inflight_tasks_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  Flow write_errors_;
  Flow write_queue_overflows_;
};

}  // namespace server
}  // namespace scc

#endif  // SCC_SERVER_SERVER_H_

#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "exec/thread_pool.h"
#include "server/server_metrics.h"
#include "sys/telemetry.h"

namespace scc {
namespace server {

namespace {

// epoll event cookies for the two non-connection fds a reactor watches.
constexpr uint64_t kListenId = 0;
constexpr uint64_t kWakeId = 1;

/// Per-recv() chunk appended to the reassembly buffer.
constexpr size_t kReadChunk = 64 * 1024;
/// Per-EPOLLIN budget: a firehose connection yields back to the event
/// loop after this many bytes so it cannot starve its reactor siblings
/// (level-triggered epoll re-signals immediately).
constexpr size_t kMaxReadPerEvent = 256 * 1024;
/// Frames corked into a single writev.
constexpr int kMaxIov = 64;

}  // namespace

Server::Server(QueryService* service, ServerOptions options)
    : service_(service),
      options_(std::move(options)),
      write_errors_(ServerMetrics::Get().write_errors),
      write_queue_overflows_(ServerMetrics::Get().write_queue_overflow) {
  if (options_.reactor_threads == 0) options_.reactor_threads = 2;
}

Server::~Server() { Stop(); }

Status Server::Start() {
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  // Every failure below closes the listener it leaves behind.
  auto fail = [this](Status st) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  };
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return fail(Status::InvalidArgument("bad listen address: " +
                                        options_.host));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail(Status::IOError(std::string("bind: ") + std::strerror(errno)));
  }
  if (::listen(listen_fd_, 1024) < 0) {
    return fail(
        Status::IOError(std::string("listen: ") + std::strerror(errno)));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  reactors_.clear();
  for (unsigned i = 0; i < options_.reactor_threads; i++) {
    auto r = std::make_unique<Reactor>();
    r->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    r->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (r->epfd < 0 || r->wake_fd < 0) {
      Status st = Status::IOError(std::string("epoll/eventfd: ") +
                                  std::strerror(errno));
      if (r->epfd >= 0) ::close(r->epfd);
      if (r->wake_fd >= 0) ::close(r->wake_fd);
      for (auto& prev : reactors_) {
        ::close(prev->epfd);
        ::close(prev->wake_fd);
      }
      reactors_.clear();
      return fail(st);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeId;
    ::epoll_ctl(r->epfd, EPOLL_CTL_ADD, r->wake_fd, &ev);
    reactors_.push_back(std::move(r));
  }
  // The listener lives in reactor 0's set; accepted fds fan out
  // round-robin across all reactors.
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenId;
    ::epoll_ctl(reactors_[0]->epfd, EPOLL_CTL_ADD, listen_fd_, &ev);
  }

  stop_.store(false, std::memory_order_release);
  accepting_.store(true, std::memory_order_release);
  started_.store(true, std::memory_order_release);
  for (size_t i = 0; i < reactors_.size(); i++) {
    reactors_[i]->thread = std::thread([this, i] { ReactorLoop(i); });
  }
  return Status::OK();
}

void Server::WakeReactor(size_t idx) {
  const uint64_t one = 1;
  ssize_t ignored =
      ::write(reactors_[idx]->wake_fd, &one, sizeof(one));
  (void)ignored;  // EAGAIN means a wake is already pending — fine
}

void Server::ReactorLoop(size_t idx) {
  Reactor& r = *reactors_[idx];
  ServerMetrics& sm = ServerMetrics::Get();
  std::vector<epoll_event> evs(128);
  while (!stop_.load(std::memory_order_acquire)) {
    // Deferred closes first: pool threads hand fd closes to the owning
    // reactor so a connection's fd is only ever closed by its reader.
    std::vector<uint64_t> closes;
    {
      std::lock_guard<std::mutex> lock(r.mu);
      closes.swap(r.close_list);
    }
    for (uint64_t id : closes) {
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> lock(r.mu);
        auto it = r.conns.find(id);
        if (it != r.conns.end()) conn = it->second;
      }
      if (conn) CloseNow(conn);
    }

    int n = ::epoll_wait(r.epfd, evs.data(), int(evs.size()), 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epfd gone: shutting down
    }
    if (n == 0) continue;
    sm.reactor_wakeups->Increment();
    sm.reactor_events->Add(uint64_t(n));
    for (int i = 0; i < n; i++) {
      const uint64_t id = evs[i].data.u64;
      if (id == kWakeId) {
        uint64_t drain = 0;
        while (::read(r.wake_fd, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (id == kListenId) {
        HandleAccept();
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> lock(r.mu);
        auto it = r.conns.find(id);
        if (it != r.conns.end()) conn = it->second;
      }
      if (!conn) continue;  // stale event: already torn down
      if (evs[i].events & EPOLLOUT) HandleWritable(conn);
      if (evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        HandleReadable(conn);
      }
    }
  }
}

void Server::HandleAccept() {
  ServerMetrics& sm = ServerMetrics::Get();
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (drained) or listener closing
    if (!accepting_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.sndbuf_bytes > 0) {
      int v = int(options_.sndbuf_bytes);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &v, sizeof(v));
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn->reactor = next_reactor_.fetch_add(1, std::memory_order_relaxed) %
                    reactors_.size();
    Reactor& target = *reactors_[conn->reactor];
    {
      std::lock_guard<std::mutex> lock(target.mu);
      target.conns[conn->id] = conn;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(target.epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      std::lock_guard<std::mutex> lock(target.mu);
      target.conns.erase(conn->id);
      ::close(fd);
      continue;
    }
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    sm.connections->Add(1);  // process-wide sum
  }
}

void Server::CloseNow(const std::shared_ptr<Conn>& conn) {
  Reactor& r = *reactors_[conn->reactor];
  {
    std::lock_guard<std::mutex> lock(r.mu);
    r.conns.erase(conn->id);
  }
  std::lock_guard<std::mutex> lock(conn->mu);
  CloseFdLocked(conn.get());
}

void Server::CloseFdLocked(Conn* conn) {
  if (conn->fd < 0) return;
  ::close(conn->fd);  // also deregisters from epoll
  conn->fd = -1;
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
  ServerMetrics::Get().connections->Add(-1);  // process-wide sum
}

void Server::ScheduleClose(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->fd < 0 || conn->close_scheduled) return;
    conn->close_scheduled = true;
    // The reactor owns the close; shutdown() here unblocks both
    // directions without freeing the descriptor for reuse.
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  Reactor& r = *reactors_[conn->reactor];
  {
    std::lock_guard<std::mutex> lock(r.mu);
    r.close_list.push_back(conn->id);
  }
  WakeReactor(conn->reactor);
}

void Server::ArmWritableLocked(Conn* conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(reactors_[conn->reactor]->epfd, EPOLL_CTL_MOD, conn->fd,
                  &ev) == 0) {
    conn->epollout_armed = true;
  }
}

bool Server::FlushLocked(Conn* conn) {
  ServerMetrics& sm = ServerMetrics::Get();
  while (!conn->write_q.empty()) {
    iovec iov[kMaxIov];
    int cnt = 0;
    size_t off = conn->write_off;
    for (const std::vector<uint8_t>& frame : conn->write_q) {
      if (cnt == kMaxIov) break;
      iov[cnt].iov_base = const_cast<uint8_t*>(frame.data()) + off;
      iov[cnt].iov_len = frame.size() - off;
      off = 0;
      cnt++;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = size_t(cnt);
    const ssize_t w = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // later
      return false;  // peer vanished: caller tears the connection down
    }
    sm.writev_calls->Increment();
    sm.bytes_out->Add(uint64_t(w));
    conn->write_q_bytes -= size_t(w);
    size_t rem = size_t(w);
    uint64_t frames_done = 0;
    while (rem > 0) {
      std::vector<uint8_t>& front = conn->write_q.front();
      const size_t left = front.size() - conn->write_off;
      if (rem >= left) {
        rem -= left;
        conn->write_off = 0;
        conn->write_q.pop_front();
        frames_done++;
      } else {
        conn->write_off += rem;
        rem = 0;
      }
    }
    sm.writev_frames->Add(frames_done);
  }
  return true;
}

void Server::QueueResponse(const std::shared_ptr<Conn>& conn,
                           const Response& resp) {
  std::vector<uint8_t> frame = EncodeResponseFramed(resp);
  bool overflow = false;
  bool write_error = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->fd < 0 || conn->close_scheduled) return;  // peer gone: drop
    if (conn->write_q_bytes + frame.size() >
        options_.max_write_queue_bytes) {
      overflow = true;  // slow reader: disconnect, never buffer unbounded
    } else {
      conn->write_q_bytes += frame.size();
      conn->write_q.push_back(std::move(frame));
      if (!conn->epollout_armed) {
        // Cork: while other admitted queries on this connection are
        // still in flight, their responses land within the same epoll
        // round — defer to EPOLLOUT (immediate on a writable socket) and
        // let the reactor flush the whole run in one writev. A lone
        // response flushes inline; EPOLLOUT then only backstops
        // whatever the socket refused.
        if (conn->pending.load(std::memory_order_acquire) > 1) {
          ArmWritableLocked(conn.get());
        } else if (!FlushLocked(conn.get())) {
          write_error = true;
        } else if (!conn->write_q.empty()) {
          ArmWritableLocked(conn.get());
        }
      }
    }
  }
  if (overflow) {
    write_queue_overflows_.Add();
    ScheduleClose(conn);
  } else if (write_error) {
    write_errors_.Add();
    ScheduleClose(conn);
  }
}

bool Server::DrainedLocked(const Conn& conn) {
  return conn.read_closed.load(std::memory_order_acquire) &&
         conn.pending.load(std::memory_order_acquire) == 0 &&
         conn.write_q.empty() && conn.fd >= 0 && !conn.close_scheduled;
}

void Server::OnTaskDone(const std::shared_ptr<Conn>& conn) {
  if (conn->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    bool reap = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      reap = DrainedLocked(*conn);
    }
    // Peer EOF'd while we were still computing; everything is answered
    // and flushed now, so the connection can go.
    if (reap) ScheduleClose(conn);
  }
  if (inflight_tasks_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

void Server::DispatchFrames(const std::shared_ptr<Conn>& conn) {
  ThreadPool& pool = ThreadPool::Instance();
  ServerMetrics& sm = ServerMetrics::Get();
  // Admitted queries from this read burst, handed to the pool in chunks:
  // per-task overhead (allocation, queue traffic, wakeup) is paid once
  // per kFramesPerTask pipelined frames instead of once per frame, while
  // bursts bigger than one chunk still spread across workers.
  constexpr size_t kFramesPerTask = 16;
  std::vector<std::pair<Request, double>> admitted;
  bool framing_broken = false;
  // A frame that does not parse is answered with request_id 0.
  auto answer_error = [&](const Status& st) {
    Response resp;
    resp.code = st.code();
    resp.error = st.message();
    QueueResponse(conn, resp);
  };
  std::vector<uint8_t>& rbuf = conn->rbuf;
  while (rbuf.size() - conn->rpos >= 4) {
    const uint8_t* p = rbuf.data() + conn->rpos;
    Result<uint32_t> len = ReadFrameHeader(p);
    if (!len.ok()) {
      answer_error(len.status());
      framing_broken = true;  // stream is out of sync; nothing can follow
      break;
    }
    const uint32_t n = len.ValueOrDie();
    if (rbuf.size() - conn->rpos - 4 < n) break;  // partial frame: wait
    sm.bytes_in->Add(4 + uint64_t(n));
    sm.reactor_frames->Increment();
    Result<Request> decoded = DecodeRequest(p + 4, n);
    conn->rpos += 4 + n;
    if (!decoded.ok()) {
      // Length framing held, so the stream is still in sync: answer the
      // bad frame and keep serving.
      answer_error(decoded.status());
      continue;
    }
    Request req = decoded.MoveValueOrDie();

    // Metadata requests bypass admission: they cost a map walk, and
    // shedding them would blind clients exactly when the server is busy.
    if (req.type == RequestType::kTableInfo) {
      QueueResponse(conn, service_->Execute(req));
      continue;
    }
    const double admit_us = TraceNowMicros();
    if (!service_->TryAdmit(req.tenant_id)) {
      // Shed on the reactor thread: no pool task, no decode work.
      QueueResponse(conn, QueryService::ShedResponse(req));
      continue;
    }
    admitted.emplace_back(std::move(req), admit_us);
  }
  // Compact the consumed prefix so a long-lived connection's buffer
  // doesn't grow with its request history.
  if (conn->rpos == rbuf.size()) {
    rbuf.clear();
    conn->rpos = 0;
  } else if (conn->rpos >= kReadChunk) {
    rbuf.erase(rbuf.begin(), rbuf.begin() + long(conn->rpos));
    conn->rpos = 0;
  }
  if (!admitted.empty()) {
    conn->pending.fetch_add(admitted.size(), std::memory_order_relaxed);
    inflight_tasks_.fetch_add(admitted.size(), std::memory_order_relaxed);
    std::vector<std::function<void()>> batch;
    batch.reserve((admitted.size() + kFramesPerTask - 1) / kFramesPerTask);
    for (size_t base = 0; base < admitted.size(); base += kFramesPerTask) {
      std::vector<std::pair<Request, double>> chunk(
          std::make_move_iterator(admitted.begin() + long(base)),
          std::make_move_iterator(
              admitted.begin() +
              long(std::min(base + kFramesPerTask, admitted.size()))));
      batch.push_back([this, conn, chunk = std::move(chunk)] {
        for (const auto& [req, admit_us] : chunk) {
          QueueResponse(conn, service_->ExecuteAdmitted(req, admit_us));
          OnTaskDone(conn);
        }
      });
    }
    // One pool handoff per read burst: every chunk is submitted under a
    // single injection-queue lock.
    pool.SubmitBatch(std::move(batch));
  }
  if (framing_broken) ScheduleClose(conn);
}

void Server::HandleReadable(const std::shared_ptr<Conn>& conn) {
  uint8_t buf[kReadChunk];
  size_t total = 0;
  bool eof = false;
  bool fatal = false;
  int fd;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    fd = conn->fd;
  }
  if (fd < 0) return;
  // Only this reactor thread ever closes conn->fd, so reading without
  // the lock is safe — close_scheduled at worst makes recv return 0.
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r > 0) {
      conn->rbuf.insert(conn->rbuf.end(), buf, buf + r);
      total += size_t(r);
      if (total >= kMaxReadPerEvent) break;  // fairness: re-signaled
      continue;
    }
    if (r == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    fatal = true;  // ECONNRESET and friends
    break;
  }
  // Frames that arrived before the EOF still get answered.
  DispatchFrames(conn);
  if (!eof && !fatal) return;
  conn->read_closed.store(true, std::memory_order_release);
  if (fatal) {
    // The socket is dead in both directions: no response can ever be
    // delivered, so drain nothing.
    CloseNow(conn);
    return;
  }
  bool drained;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    drained = DrainedLocked(*conn);
  }
  // Half-closed peers keep receiving until their in-flight queries are
  // answered; OnTaskDone/HandleWritable reap the connection when the
  // last response drains.
  if (drained) CloseNow(conn);
}

void Server::HandleWritable(const std::shared_ptr<Conn>& conn) {
  bool write_error = false;
  bool reap = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->fd < 0) return;
    if (!FlushLocked(conn.get())) {
      write_error = true;
    } else if (conn->write_q.empty()) {
      if (conn->epollout_armed) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = conn->id;
        ::epoll_ctl(reactors_[conn->reactor]->epfd, EPOLL_CTL_MOD, conn->fd,
                    &ev);
        conn->epollout_armed = false;
      }
      reap = DrainedLocked(*conn);
    }
  }
  if (write_error) {
    write_errors_.Add();
    CloseNow(conn);
    return;
  }
  if (reap) CloseNow(conn);
}

void Server::Stop() {
  if (!started_.exchange(false, std::memory_order_acq_rel)) return;
  accepting_.store(false, std::memory_order_release);
  if (listen_fd_ >= 0 && !reactors_.empty()) {
    ::epoll_ctl(reactors_[0]->epfd, EPOLL_CTL_DEL, listen_fd_, nullptr);
  }
  // Half-close every connection: readers see EOF (no new requests), the
  // write side stays open so in-flight responses still reach the peer.
  for (auto& r : reactors_) {
    std::vector<std::shared_ptr<Conn>> snapshot;
    {
      std::lock_guard<std::mutex> lock(r->mu);
      snapshot.reserve(r->conns.size());
      for (auto& [id, c] : r->conns) snapshot.push_back(c);
    }
    for (auto& c : snapshot) {
      std::lock_guard<std::mutex> lock(c->mu);
      if (c->fd >= 0 && !c->close_scheduled) ::shutdown(c->fd, SHUT_RD);
    }
  }
  // Drain in-flight queries; the reactors keep running so their
  // responses flush normally.
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [this] {
      return inflight_tasks_.load(std::memory_order_acquire) == 0;
    });
  }
  // Bounded grace window for the reactors to flush tails and reap the
  // EOF'd connections; stragglers are force-closed after the join.
  for (int spin = 0; spin < 1000; spin++) {
    bool empty = true;
    for (auto& r : reactors_) {
      std::lock_guard<std::mutex> lock(r->mu);
      empty = empty && r->conns.empty();
    }
    if (empty) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_.store(true, std::memory_order_release);
  for (size_t i = 0; i < reactors_.size(); i++) WakeReactor(i);
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
  for (auto& r : reactors_) {
    std::unordered_map<uint64_t, std::shared_ptr<Conn>> left;
    {
      std::lock_guard<std::mutex> lock(r->mu);
      left.swap(r->conns);
    }
    for (auto& [id, c] : left) {
      std::lock_guard<std::mutex> lock(c->mu);
      CloseFdLocked(c.get());
    }
    ::close(r->epfd);
    ::close(r->wake_fd);
  }
  reactors_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

size_t Server::connection_count() const {
  return open_connections_.load(std::memory_order_relaxed);
}

}  // namespace server
}  // namespace scc

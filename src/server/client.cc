#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

namespace scc {
namespace server {

namespace {

bool WriteFull(int fd, const void* buf, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  while (n > 0) {
    ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w > 0) {
      p += w;
      n -= size_t(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

// --- PipelinedClient ----------------------------------------------------

PipelinedClient& PipelinedClient::operator=(PipelinedClient&& o) noexcept {
  if (this != &o) {
    Close();
    fd_ = o.fd_;
    next_request_id_ = o.next_request_id_;
    tenant_id_ = o.tenant_id_;
    outstanding_ = o.outstanding_;
    sbuf_ = std::move(o.sbuf_);
    rbuf_ = std::move(o.rbuf_);
    rpos_ = o.rpos_;
    o.fd_ = -1;
    o.outstanding_ = 0;
    o.rpos_ = 0;
  }
  return *this;
}

Result<PipelinedClient> PipelinedClient::Connect(const std::string& host,
                                                 uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st =
        Status::IOError(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  PipelinedClient c;
  c.fd_ = fd;
  return c;
}

void PipelinedClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  outstanding_ = 0;
  sbuf_.clear();
  rbuf_.clear();
  rpos_ = 0;
}

Status PipelinedClient::Flush() {
  if (fd_ < 0) return Status::IOError("client not connected");
  if (sbuf_.empty()) return Status::OK();
  if (!WriteFull(fd_, sbuf_.data(), sbuf_.size())) {
    Close();
    return Status::IOError("connection lost while sending requests");
  }
  sbuf_.clear();
  return Status::OK();
}

Result<uint64_t> PipelinedClient::Send(Request req) {
  if (fd_ < 0) return Status::IOError("client not connected");
  if (req.request_id == 0) req.request_id = next_request_id_++;
  if (req.tenant_id == 0) req.tenant_id = tenant_id_;
  EncodeRequestFramedInto(req, &sbuf_);
  outstanding_++;
  // Cork until Next() blocks for a response; bound the buffer so a
  // send-only burst cannot grow it without limit.
  if (sbuf_.size() >= 256 * 1024) {
    SCC_RETURN_NOT_OK(Flush());
  }
  return req.request_id;
}

Result<Response> PipelinedClient::Next() {
  if (fd_ < 0) return Status::IOError("client not connected");
  if (outstanding_ == 0) {
    return Status::InvalidArgument("no outstanding pipelined requests");
  }
  SCC_RETURN_NOT_OK(Flush());
  // Refill until one whole response frame is resident, then decode it in
  // place. Bulk recv: one syscall typically delivers many frames.
  for (;;) {
    if (rbuf_.size() - rpos_ >= 4) {
      Result<uint32_t> len = ReadFrameHeader(rbuf_.data() + rpos_);
      if (!len.ok()) {
        Close();
        return len.status();
      }
      const uint32_t n = len.ValueOrDie();
      if (rbuf_.size() - rpos_ - 4 >= n) {
        Result<Response> resp = DecodeResponse(rbuf_.data() + rpos_ + 4, n);
        rpos_ += 4 + n;
        if (rpos_ == rbuf_.size()) {
          rbuf_.clear();
          rpos_ = 0;
        } else if (rpos_ >= 64 * 1024) {
          rbuf_.erase(rbuf_.begin(), rbuf_.begin() + long(rpos_));
          rpos_ = 0;
        }
        outstanding_--;
        return resp;
      }
    }
    uint8_t chunk[64 * 1024];
    ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (r > 0) {
      rbuf_.insert(rbuf_.end(), chunk, chunk + r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    Close();
    return Status::IOError("connection lost while awaiting response");
  }
}

// --- Client -------------------------------------------------------------

Result<Client> Client::Connect(const std::string& host, uint16_t port) {
  Client c;
  SCC_ASSIGN_OR_RETURN(c.conn_, PipelinedClient::Connect(host, port));
  return c;
}

Result<Response> Client::Call(const Request& req) {
  SCC_RETURN_NOT_OK(conn_.Send(req).status());
  return conn_.Next();
}

Result<Response> Client::Point(const std::string& column, uint64_t row,
                               uint64_t deadline_micros) {
  Request req;
  req.type = RequestType::kPoint;
  req.deadline_micros = deadline_micros;
  req.tenant_id = tenant_id_;
  req.column = column;
  req.row = row;
  return Call(req);
}

Result<Response> Client::Scan(const std::string& column,
                              const std::string& filter_column, int64_t lo,
                              int64_t hi, uint64_t limit,
                              uint64_t deadline_micros) {
  Request req;
  req.type = RequestType::kScan;
  req.deadline_micros = deadline_micros;
  req.tenant_id = tenant_id_;
  req.column = column;
  req.filter_column = filter_column;
  req.lo = lo;
  req.hi = hi;
  req.limit = limit;
  return Call(req);
}

Result<Response> Client::Aggregate(AggOp op, const std::string& column,
                                   const std::string& filter_column,
                                   int64_t lo, int64_t hi,
                                   uint64_t deadline_micros) {
  Request req;
  req.type = RequestType::kAggregate;
  req.agg_op = op;
  req.deadline_micros = deadline_micros;
  req.tenant_id = tenant_id_;
  req.column = column;
  req.filter_column = filter_column;
  req.lo = lo;
  req.hi = hi;
  return Call(req);
}

Result<Response> Client::TableInfo() {
  Request req;
  req.type = RequestType::kTableInfo;
  req.tenant_id = tenant_id_;
  return Call(req);
}

}  // namespace server
}  // namespace scc

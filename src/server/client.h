#ifndef SCC_SERVER_CLIENT_H_
#define SCC_SERVER_CLIENT_H_

#include <cstdint>
#include <string>

#include "server/protocol.h"

// scc_serve clients, both on one connection type.
//
// PipelinedClient: one TCP connection, many outstanding requests. Send()
// writes a frame without waiting; Next() blocks for whichever response
// completes first. The server answers in *completion* order, so callers
// must correlate by Response::request_id, not by send order. One
// pipelined connection amortizes syscalls and wakeups across its depth —
// the workload driver's `--mode pipelined` holds `--depth` requests in
// flight per connection and sustains several times the closed-loop
// throughput at the same client count.
//
// Client: a PipelinedClient with one request outstanding. Call() is
// Send() then Next(), so each request costs one send() and its response
// is the only one that can arrive. Concurrency comes from running many
// clients — the workload driver gives each closed-loop client its own
// connection, exactly how a service mesh would fan out.
//
// Both clients auto-assign a zero request_id. PipelinedClient stamps its
// set_tenant_id() value onto requests that carry tenant 0; Client's
// convenience wrappers stamp its tenant, and Call() sends the tenant as
// given. The default tenant 0 is subject only to the global admission
// cap.

namespace scc {
namespace server {

/// Pipelined connection: decoupled Send()/Next(). Responses arrive in
/// completion order — match them to sends via Response::request_id.
///
/// Send() corks: request frames accumulate in a send buffer that is
/// flushed when Next() is about to block (or past a size bound), so a
/// burst of sends costs one send() syscall. Next() reads in bulk and
/// parses response frames out of a reassembly buffer — together a full
/// pipeline round trip costs ~2 syscalls regardless of depth.
class PipelinedClient {
 public:
  PipelinedClient() = default;
  PipelinedClient(PipelinedClient&& o) noexcept { *this = std::move(o); }
  PipelinedClient& operator=(PipelinedClient&& o) noexcept;
  PipelinedClient(const PipelinedClient&) = delete;
  PipelinedClient& operator=(const PipelinedClient&) = delete;
  ~PipelinedClient() { Close(); }

  static Result<PipelinedClient> Connect(const std::string& host,
                                         uint16_t port);

  /// Writes one request frame without waiting for its response. A zero
  /// req.request_id is replaced with an auto-assigned one; the id the
  /// frame actually carried is returned for correlation. The client's
  /// tenant id is stamped when the request carries tenant 0.
  Result<uint64_t> Send(Request req);

  /// Blocks for the next response frame, whichever request it answers.
  /// InvalidArgument when nothing is outstanding.
  Result<Response> Next();

  /// Requests sent whose responses Next() has not yet returned.
  size_t outstanding() const { return outstanding_; }

  /// Pushes any corked request frames to the wire now. Next() calls this
  /// automatically; explicit use only matters before going idle with
  /// sends outstanding and no intent to read yet.
  Status Flush();

  void set_tenant_id(uint32_t tenant_id) { tenant_id_ = tenant_id; }
  uint32_t tenant_id() const { return tenant_id_; }

  bool connected() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  uint32_t tenant_id_ = 0;
  size_t outstanding_ = 0;
  std::vector<uint8_t> sbuf_;  // corked request frames, not yet sent
  std::vector<uint8_t> rbuf_;  // response reassembly buffer
  size_t rpos_ = 0;            // consumed prefix of rbuf_
};

/// One request at a time over a PipelinedClient.
class Client {
 public:
  /// Connects to a running server. IOError on refusal/bad address.
  static Result<Client> Connect(const std::string& host, uint16_t port);

  /// Sends `req` and blocks for its response. A zero req.request_id is
  /// auto-assigned; req.tenant_id is sent as given. IOError if the
  /// connection drops mid-call (the connection is unusable afterwards).
  Result<Response> Call(const Request& req);

  bool connected() const { return conn_.connected(); }
  void Close() { conn_.Close(); }

  /// Admission-quota bucket stamped onto requests built by the
  /// convenience wrappers below.
  void set_tenant_id(uint32_t tenant_id) { tenant_id_ = tenant_id; }
  uint32_t tenant_id() const { return tenant_id_; }

  // Convenience wrappers (request_id auto-assigned).
  Result<Response> Point(const std::string& column, uint64_t row,
                         uint64_t deadline_micros = 0);
  Result<Response> Scan(const std::string& column,
                        const std::string& filter_column, int64_t lo,
                        int64_t hi, uint64_t limit,
                        uint64_t deadline_micros = 0);
  Result<Response> Aggregate(AggOp op, const std::string& column,
                             const std::string& filter_column, int64_t lo,
                             int64_t hi, uint64_t deadline_micros = 0);
  Result<Response> TableInfo();

 private:
  PipelinedClient conn_;
  uint32_t tenant_id_ = 0;
};

}  // namespace server
}  // namespace scc

#endif  // SCC_SERVER_CLIENT_H_

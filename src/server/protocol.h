#ifndef SCC_SERVER_PROTOCOL_H_
#define SCC_SERVER_PROTOCOL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

// scc_serve wire protocol (docs/SERVICE.md): length-prefixed binary
// frames over a byte stream. Every frame is
//
//   u32 length   (little-endian, payload bytes that follow; bounded by
//                 kMaxFrameBytes so a corrupt prefix cannot make the
//                 server allocate gigabytes)
//   payload      (one encoded Request or Response)
//
// All integers are little-endian. Strings are u16 length + raw bytes.
// The encoding is deliberately positional (no tags): the protocol is
// versioned as a whole via the leading version byte, and any version
// but kProtocolVersion, or an unknown type, is rejected with
// InvalidArgument before any work is admitted. Decoders are
// bounds-checked at every read — a truncated or hostile frame yields
// Status, never an out-of-bounds read (the same contract the segment
// corruption battery pins for stored bytes).
//
// Each message has one body writer (AppendRequest, AppendResponse) and
// one framed encoder on top of it; AppendFrame writes and
// ReadFrameHeader checks the length prefix for both directions.

namespace scc {
namespace server {

/// Hard cap on a frame's payload. Large enough for max_scan_rows int64
/// values plus headroom; small enough that a garbage length prefix
/// cannot balloon memory.
constexpr uint32_t kMaxFrameBytes = 1u << 24;

/// The one request version the server accepts. Version 2 added a
/// `u32 tenant_id` to every request (after `deadline_micros`), feeding
/// per-tenant admission quotas. A version-1 frame is an unsupported
/// version like any other; see the table in docs/SERVICE.md.
constexpr uint8_t kProtocolVersion = 2;

enum class RequestType : uint8_t {
  kPoint = 1,      // one value by (column, row) — tiered ReadValue
  kScan = 2,       // values of `column` where filter in [lo, hi]
  kAggregate = 3,  // SUM/COUNT/MIN/MAX over `column`, optional filter
  kTableInfo = 4,  // schema + row count
};

enum class AggOp : uint8_t {
  kNone = 0,
  kSum = 1,
  kCount = 2,
  kMin = 3,
  kMax = 4,
};

/// One client query. `deadline_micros` is a *relative* budget (from
/// server receipt) in microseconds; 0 means "use the server default".
struct Request {
  RequestType type = RequestType::kPoint;
  AggOp agg_op = AggOp::kNone;
  uint64_t request_id = 0;
  uint64_t deadline_micros = 0;
  /// Admission-quota bucket.
  /// Tenants with a configured quota are capped at their weighted share
  /// of max_inflight; tenant 0 / unconfigured tenants share the global
  /// cap only.
  uint32_t tenant_id = 0;
  std::string column;  // target column (ignored for kTableInfo)

  // kPoint
  uint64_t row = 0;

  // kScan / kAggregate: BETWEEN predicate on `filter_column` (kScan
  // requires one; kAggregate with an empty filter_column aggregates the
  // whole column).
  std::string filter_column;
  int64_t lo = 0;
  int64_t hi = 0;

  // kScan: max values materialized in the response. total_matches is
  // exact regardless.
  uint64_t limit = 0;
};

/// One column's schema entry in a kTableInfo response.
struct ColumnInfo {
  std::string name;
  uint8_t type = 0;  // TypeId as uint8
};

/// Server reply. `code` mirrors StatusCode; responses with a non-OK code
/// carry `error` and no payload.
struct Response {
  uint64_t request_id = 0;
  StatusCode code = StatusCode::kOk;
  RequestType type = RequestType::kPoint;

  int64_t value = 0;            // kPoint / kAggregate result
  uint64_t total_matches = 0;   // kScan: matches before `limit`
  std::vector<int64_t> values;  // kScan: first min(limit, cap) values

  uint64_t rows = 0;  // kTableInfo
  std::vector<ColumnInfo> columns;

  std::string error;  // non-OK only
};

// --- primitive append/read helpers -------------------------------------

inline void AppendU8(std::vector<uint8_t>* out, uint8_t v) {
  out->push_back(v);
}
inline void AppendU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(uint8_t(v));
  out->push_back(uint8_t(v >> 8));
}
inline void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; i++) out->push_back(uint8_t(v >> (8 * i)));
}
inline void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; i++) out->push_back(uint8_t(v >> (8 * i)));
}
inline void AppendI64(std::vector<uint8_t>* out, int64_t v) {
  AppendU64(out, uint64_t(v));
}
inline void AppendString(std::vector<uint8_t>* out, const std::string& s) {
  AppendU16(out, uint16_t(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

/// Bounds-checked sequential reader over a decoded frame payload.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status U8(uint8_t* v) { return Fixed(v); }
  Status U16(uint16_t* v) { return Fixed(v); }
  Status U32(uint32_t* v) { return Fixed(v); }
  Status U64(uint64_t* v) { return Fixed(v); }
  Status I64(int64_t* v) {
    uint64_t u;
    SCC_RETURN_NOT_OK(U64(&u));
    std::memcpy(v, &u, sizeof(u));
    return Status::OK();
  }
  Status String(std::string* s) {
    uint16_t len = 0;
    SCC_RETURN_NOT_OK(U16(&len));
    return Bytes(s, len);
  }
  /// Reads `len` raw bytes into `s`.
  Status Bytes(std::string* s, size_t len) {
    if (size_ - pos_ < len) return Truncated();
    s->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return Status::OK();
  }
  size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  Status Fixed(T* v) {
    if (size_ - pos_ < sizeof(T)) return Truncated();
    // Little-endian decode, alignment-safe.
    uint64_t u = 0;
    for (size_t i = 0; i < sizeof(T); i++) {
      u |= uint64_t(data_[pos_ + i]) << (8 * i);
    }
    *v = T(u);
    pos_ += sizeof(T);
    return Status::OK();
  }
  static Status Truncated() {
    return Status::InvalidArgument("truncated frame");
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// --- frames -------------------------------------------------------------

/// Appends one frame to `out`: a u32 length prefix, then whatever
/// `write_body()` appends to `out`, the prefix patched once the size is
/// known. Many frames can be corked into one buffer this way.
template <typename WriteBody>
inline void AppendFrame(std::vector<uint8_t>* out, WriteBody&& write_body) {
  const size_t frame_at = out->size();
  AppendU32(out, 0);  // length placeholder
  write_body();
  const uint32_t n = uint32_t(out->size() - frame_at - 4);
  for (int i = 0; i < 4; i++) {
    (*out)[frame_at + size_t(i)] = uint8_t(n >> (8 * i));
  }
}

/// Reads the u32 length prefix at `p` (4 bytes). InvalidArgument unless
/// 0 < length <= kMaxFrameBytes: a stream with a bad prefix is out of
/// sync, and nothing that follows on it can be trusted.
inline Result<uint32_t> ReadFrameHeader(const uint8_t* p) {
  uint32_t n = 0;
  for (int i = 0; i < 4; i++) n |= uint32_t(p[i]) << (8 * i);
  if (n == 0 || n > kMaxFrameBytes) {
    return Status::InvalidArgument("bad frame length " + std::to_string(n));
  }
  return n;
}

// --- request encoding ---------------------------------------------------

/// Appends `req`'s payload (no length prefix).
inline void AppendRequest(const Request& req, std::vector<uint8_t>* out) {
  AppendU8(out, kProtocolVersion);
  AppendU8(out, uint8_t(req.type));
  AppendU8(out, uint8_t(req.agg_op));
  AppendU8(out, 0);  // flags, reserved
  AppendU64(out, req.request_id);
  AppendU64(out, req.deadline_micros);
  AppendU32(out, req.tenant_id);
  AppendString(out, req.column);
  switch (req.type) {
    case RequestType::kPoint:
      AppendU64(out, req.row);
      break;
    case RequestType::kScan:
      AppendString(out, req.filter_column);
      AppendI64(out, req.lo);
      AppendI64(out, req.hi);
      AppendU64(out, req.limit);
      break;
    case RequestType::kAggregate:
      AppendString(out, req.filter_column);
      AppendI64(out, req.lo);
      AppendI64(out, req.hi);
      break;
    case RequestType::kTableInfo:
      break;
  }
}

/// Appends `req`'s wire frame directly onto `out`. PipelinedClient corks
/// many requests into one send buffer this way.
inline void EncodeRequestFramedInto(const Request& req,
                                    std::vector<uint8_t>* out) {
  AppendFrame(out, [&] { AppendRequest(req, out); });
}

inline Result<Request> DecodeRequest(const uint8_t* data, size_t size) {
  ByteReader r(data, size);
  uint8_t version = 0, type = 0, agg = 0, flags = 0;
  SCC_RETURN_NOT_OK(r.U8(&version));
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(version));
  }
  SCC_RETURN_NOT_OK(r.U8(&type));
  SCC_RETURN_NOT_OK(r.U8(&agg));
  SCC_RETURN_NOT_OK(r.U8(&flags));
  if (type < uint8_t(RequestType::kPoint) ||
      type > uint8_t(RequestType::kTableInfo)) {
    return Status::InvalidArgument("unknown request type " +
                                   std::to_string(type));
  }
  Request req;
  req.type = RequestType(type);
  req.agg_op = AggOp(agg);
  SCC_RETURN_NOT_OK(r.U64(&req.request_id));
  SCC_RETURN_NOT_OK(r.U64(&req.deadline_micros));
  SCC_RETURN_NOT_OK(r.U32(&req.tenant_id));
  SCC_RETURN_NOT_OK(r.String(&req.column));
  switch (req.type) {
    case RequestType::kPoint:
      SCC_RETURN_NOT_OK(r.U64(&req.row));
      break;
    case RequestType::kScan:
      SCC_RETURN_NOT_OK(r.String(&req.filter_column));
      SCC_RETURN_NOT_OK(r.I64(&req.lo));
      SCC_RETURN_NOT_OK(r.I64(&req.hi));
      SCC_RETURN_NOT_OK(r.U64(&req.limit));
      break;
    case RequestType::kAggregate:
      if (req.agg_op < AggOp::kSum || req.agg_op > AggOp::kMax) {
        return Status::InvalidArgument("unknown aggregate op " +
                                       std::to_string(agg));
      }
      SCC_RETURN_NOT_OK(r.String(&req.filter_column));
      SCC_RETURN_NOT_OK(r.I64(&req.lo));
      SCC_RETURN_NOT_OK(r.I64(&req.hi));
      break;
    case RequestType::kTableInfo:
      break;
  }
  return req;
}

// --- response encoding --------------------------------------------------

/// Appends `resp`'s payload (no length prefix).
inline void AppendResponse(const Response& resp, std::vector<uint8_t>* out) {
  AppendU64(out, resp.request_id);
  AppendU8(out, uint8_t(resp.code));
  AppendU8(out, uint8_t(resp.type));
  AppendU16(out, 0);  // reserved
  if (resp.code != StatusCode::kOk) {
    AppendU32(out, uint32_t(resp.error.size()));
    out->insert(out->end(), resp.error.begin(), resp.error.end());
    return;
  }
  switch (resp.type) {
    case RequestType::kPoint:
    case RequestType::kAggregate:
      AppendI64(out, resp.value);
      break;
    case RequestType::kScan:
      AppendU64(out, resp.total_matches);
      AppendU64(out, uint64_t(resp.values.size()));
      for (int64_t v : resp.values) AppendI64(out, v);
      break;
    case RequestType::kTableInfo:
      AppendU64(out, resp.rows);
      AppendU32(out, uint32_t(resp.columns.size()));
      for (const ColumnInfo& c : resp.columns) {
        AppendString(out, c.name);
        AppendU8(out, c.type);
      }
      break;
  }
}

/// `resp`'s wire frame in one buffer, ready for send()/writev().
inline std::vector<uint8_t> EncodeResponseFramed(const Response& resp) {
  std::vector<uint8_t> out;
  out.reserve(64);
  AppendFrame(&out, [&] { AppendResponse(resp, &out); });
  return out;
}

inline Result<Response> DecodeResponse(const uint8_t* data, size_t size) {
  ByteReader r(data, size);
  Response resp;
  uint8_t code = 0, type = 0;
  uint16_t reserved = 0;
  SCC_RETURN_NOT_OK(r.U64(&resp.request_id));
  SCC_RETURN_NOT_OK(r.U8(&code));
  SCC_RETURN_NOT_OK(r.U8(&type));
  SCC_RETURN_NOT_OK(r.U16(&reserved));
  resp.code = StatusCode(code);
  if (type < uint8_t(RequestType::kPoint) ||
      type > uint8_t(RequestType::kTableInfo)) {
    return Status::InvalidArgument("unknown response type " +
                                   std::to_string(type));
  }
  resp.type = RequestType(type);
  if (resp.code != StatusCode::kOk) {
    uint32_t len = 0;
    SCC_RETURN_NOT_OK(r.U32(&len));
    SCC_RETURN_NOT_OK(r.Bytes(&resp.error, len));
    return resp;
  }
  switch (resp.type) {
    case RequestType::kPoint:
    case RequestType::kAggregate:
      SCC_RETURN_NOT_OK(r.I64(&resp.value));
      break;
    case RequestType::kScan: {
      uint64_t n = 0;
      SCC_RETURN_NOT_OK(r.U64(&resp.total_matches));
      SCC_RETURN_NOT_OK(r.U64(&n));
      if (n > r.remaining() / 8) {
        return Status::InvalidArgument("truncated frame");
      }
      resp.values.resize(size_t(n));
      for (size_t i = 0; i < size_t(n); i++) {
        SCC_RETURN_NOT_OK(r.I64(&resp.values[i]));
      }
      break;
    }
    case RequestType::kTableInfo: {
      uint32_t n = 0;
      SCC_RETURN_NOT_OK(r.U64(&resp.rows));
      SCC_RETURN_NOT_OK(r.U32(&n));
      if (n > r.remaining() / 3) {  // >= 3 bytes per encoded column
        return Status::InvalidArgument("truncated frame");
      }
      resp.columns.resize(n);
      for (uint32_t i = 0; i < n; i++) {
        SCC_RETURN_NOT_OK(r.String(&resp.columns[i].name));
        SCC_RETURN_NOT_OK(r.U8(&resp.columns[i].type));
      }
      break;
    }
  }
  return resp;
}

}  // namespace server
}  // namespace scc

#endif  // SCC_SERVER_PROTOCOL_H_

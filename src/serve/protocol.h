// Wire protocol for the TCP serving front end (version 2; version 1 frames
// are still accepted).
//
// Framing: every message is a 4-byte little-endian payload length followed
// by that many payload bytes.  The protocol is binary and little-endian on
// the wire — this library targets x86 servers (the paper's whole premise),
// so encode/decode are straight memcpys on every supported host.
//
// The framing is transport-independent: the thread-per-connection and epoll
// front ends (serve/transport.h) produce byte-identical streams, and a
// frame split across any number of partial reads or writes reassembles
// identically.  Nothing in this header knows which transport carried it.
//
// Request payload (v2):
//   u8  version   (1 or 2)
//   u8  opcode    (Opcode::TopK)
//   u16 reserved  (must be 0)
//   u32 k         (top-k to return; clamped to the server's configured cap)
//   u32 nnz       (number of sparse features)
//   u64 deadline_us  (v2 only: request budget in microseconds from server
//                     receipt; 0 = no deadline.  The server sheds the
//                     request with DeadlineExceeded instead of serving it
//                     late — relative budgets avoid client clock sync.)
//   u32[nnz]      feature indices (strictly increasing)
//   f32[nnz]      feature values
//
// Reply payload:
//   u8  version
//   u8  status    (Status; non-Ok replies carry a UTF-8 message as body)
//   u16 flags     (bit 0: reply was served degraded — the server downgraded
//                  a dense top-k to the LSH-sampled path under load; v1
//                  wrote 0 here, so old replies decode as non-degraded)
//   u32 count
//   Ok:      u32[count] neuron ids, f32[count] logits
//   errors:  u8[count] human-readable error message
//
// Malformed frames (bad version/opcode, nnz mismatch, oversized payload)
// get a BadRequest reply and the connection stays usable; overload maps the
// batching server's admission verdict to Overloaded; expired requests get
// DeadlineExceeded; a draining server answers ShuttingDown.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace slide::serve {

inline constexpr std::uint8_t kProtocolVersion = 2;
inline constexpr std::uint8_t kMinProtocolVersion = 1;
// Generous per-request ceiling: 1M sparse features is far beyond any XC
// dataset; anything larger is a corrupt or hostile frame.
inline constexpr std::uint32_t kMaxNnz = 1u << 20;
inline constexpr std::uint32_t kMaxPayloadBytes = 24 + kMaxNnz * 8;

// Reply `flags` bits.
inline constexpr std::uint16_t kReplyFlagDegraded = 1u << 0;

enum class Opcode : std::uint8_t { TopK = 1 };

enum class Status : std::uint8_t {
  Ok = 0,
  BadRequest = 1,
  Overloaded = 2,
  ShuttingDown = 3,
  InternalError = 4,
  DeadlineExceeded = 5,
};

inline const char* status_name(Status s) {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::BadRequest: return "bad-request";
    case Status::Overloaded: return "overloaded";
    case Status::ShuttingDown: return "shutting-down";
    case Status::InternalError: return "internal-error";
    case Status::DeadlineExceeded: return "deadline-exceeded";
  }
  return "?";
}

// A client should retry these (after backoff); everything else is
// deterministic and would just fail again.
inline bool status_is_retryable(Status s) { return s == Status::Overloaded; }

namespace wire {

inline void put_u8(std::vector<std::uint8_t>& b, std::uint8_t v) { b.push_back(v); }
inline void put_u16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  const std::size_t at = b.size();
  b.resize(at + 2);
  std::memcpy(b.data() + at, &v, 2);
}
inline void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  const std::size_t at = b.size();
  b.resize(at + 4);
  std::memcpy(b.data() + at, &v, 4);
}
inline void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  const std::size_t at = b.size();
  b.resize(at + 8);
  std::memcpy(b.data() + at, &v, 8);
}
template <typename T>
inline void put_array(std::vector<std::uint8_t>& b, const T* data, std::size_t n) {
  const std::size_t at = b.size();
  b.resize(at + n * sizeof(T));
  if (n != 0) std::memcpy(b.data() + at, data, n * sizeof(T));
}

// Bounds-checked little-endian reader over one received payload.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> payload) : data_(payload) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t u8() { return read_scalar<std::uint8_t>(); }
  std::uint16_t u16() { return read_scalar<std::uint16_t>(); }
  std::uint32_t u32() { return read_scalar<std::uint32_t>(); }
  std::uint64_t u64() { return read_scalar<std::uint64_t>(); }

  template <typename T>
  bool array(T* out, std::size_t n) {
    if (!take(n * sizeof(T))) return false;
    // An empty array may come with a null `out`, which memcpy must not see.
    if (n != 0) std::memcpy(out, data_.data() + pos_ - n * sizeof(T), n * sizeof(T));
    return true;
  }

 private:
  template <typename T>
  T read_scalar() {
    T v{};
    if (take(sizeof(T))) std::memcpy(&v, data_.data() + pos_ - sizeof(T), sizeof(T));
    return v;
  }
  bool take(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace wire

struct QueryRequest {
  std::uint32_t k = 0;
  std::uint64_t deadline_us = 0;  // 0 = no deadline
  std::vector<std::uint32_t> indices;
  std::vector<float> values;
};

inline std::vector<std::uint8_t> encode_query(std::span<const std::uint32_t> indices,
                                              std::span<const float> values,
                                              std::uint32_t k,
                                              std::uint64_t deadline_us = 0) {
  std::vector<std::uint8_t> out;
  out.reserve(20 + indices.size() * 8);
  wire::put_u8(out, kProtocolVersion);
  wire::put_u8(out, static_cast<std::uint8_t>(Opcode::TopK));
  wire::put_u16(out, 0);
  wire::put_u32(out, k);
  wire::put_u32(out, static_cast<std::uint32_t>(indices.size()));
  wire::put_u64(out, deadline_us);
  wire::put_array(out, indices.data(), indices.size());
  wire::put_array(out, values.data(), values.size());
  return out;
}

// Returns Ok and fills `req`, or the BadRequest reason to send back.
inline Status decode_query(std::span<const std::uint8_t> payload, QueryRequest& req,
                           std::string* reason = nullptr) {
  const auto bad = [&](const char* why) {
    if (reason != nullptr) *reason = why;
    return Status::BadRequest;
  };
  wire::Reader r(payload);
  const std::uint8_t version = r.u8();
  const std::uint8_t opcode = r.u8();
  (void)r.u16();
  req.k = r.u32();
  const std::uint32_t nnz = r.u32();
  if (!r.ok()) return bad("truncated request header");
  if (version < kMinProtocolVersion || version > kProtocolVersion) {
    return bad("unsupported protocol version");
  }
  // v1 has no deadline field; default to "no deadline".
  req.deadline_us = version >= 2 ? r.u64() : 0;
  if (!r.ok()) return bad("truncated request header");
  if (opcode != static_cast<std::uint8_t>(Opcode::TopK)) return bad("unknown opcode");
  if (nnz > kMaxNnz) return bad("nnz exceeds protocol limit");
  req.indices.resize(nnz);
  req.values.resize(nnz);
  if (!r.array(req.indices.data(), nnz) || !r.array(req.values.data(), nnz)) {
    return bad("truncated feature arrays");
  }
  if (r.remaining() != 0) return bad("trailing bytes after request");
  return Status::Ok;
}

inline std::vector<std::uint8_t> encode_reply(std::span<const std::uint32_t> ids,
                                              std::span<const float> scores,
                                              bool degraded = false) {
  std::vector<std::uint8_t> out;
  out.reserve(8 + ids.size() * 8);
  wire::put_u8(out, kProtocolVersion);
  wire::put_u8(out, static_cast<std::uint8_t>(Status::Ok));
  wire::put_u16(out, degraded ? kReplyFlagDegraded : 0);
  wire::put_u32(out, static_cast<std::uint32_t>(ids.size()));
  wire::put_array(out, ids.data(), ids.size());
  wire::put_array(out, scores.data(), scores.size());
  return out;
}

inline std::vector<std::uint8_t> encode_error_reply(Status status,
                                                    const std::string& message) {
  std::vector<std::uint8_t> out;
  wire::put_u8(out, kProtocolVersion);
  wire::put_u8(out, static_cast<std::uint8_t>(status));
  wire::put_u16(out, 0);
  wire::put_u32(out, static_cast<std::uint32_t>(message.size()));
  wire::put_array(out, reinterpret_cast<const std::uint8_t*>(message.data()),
                  message.size());
  return out;
}

struct QueryReply {
  Status status = Status::InternalError;
  bool degraded = false;  // served via the LSH-sampled path under load
  std::vector<std::uint32_t> ids;
  std::vector<float> scores;
  std::string error;  // filled for non-Ok statuses
};

inline bool decode_reply(std::span<const std::uint8_t> payload, QueryReply& reply) {
  wire::Reader r(payload);
  const std::uint8_t version = r.u8();
  const std::uint8_t status = r.u8();
  const std::uint16_t flags = r.u16();
  const std::uint32_t count = r.u32();
  if (!r.ok() || version < kMinProtocolVersion || version > kProtocolVersion) {
    return false;
  }
  reply.status = static_cast<Status>(status);
  reply.degraded = (flags & kReplyFlagDegraded) != 0;
  if (reply.status == Status::Ok) {
    if (count > kMaxNnz) return false;
    reply.ids.resize(count);
    reply.scores.resize(count);
    return r.array(reply.ids.data(), count) && r.array(reply.scores.data(), count) &&
           r.remaining() == 0;
  }
  if (count != r.remaining()) return false;
  reply.error.resize(count);
  return r.array(reinterpret_cast<std::uint8_t*>(reply.error.data()), count);
}

}  // namespace slide::serve

#include "net/wire.h"

#include "core/serialize.h"
#include "util/bytes.h"
#include "util/check.h"

namespace nors::net {

namespace {

using util::fnv1a;
using util::read_le;
using util::write_le;

bool known_request_type(std::uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kHello:
    case FrameType::kHelloAck:
    case FrameType::kRoute:
    case FrameType::kRouteAck:
    case FrameType::kLabel:
    case FrameType::kLabelAck:
    case FrameType::kStats:
    case FrameType::kStatsAck:
    case FrameType::kUpdate:
    case FrameType::kUpdateAck:
    case FrameType::kSubscribe:
    case FrameType::kSubscribeAck:
    case FrameType::kRepl:
    case FrameType::kCheckpoint:
    case FrameType::kCheckpointAck:
    case FrameType::kError:
      return true;
    default:
      return false;
  }
}

/// Body decode cursor with the exact-consumption discipline of the frozen
/// v3 sections: every getter throws via core::get_uvarint's guards, and
/// finish() rejects trailing bytes, so a body either decodes completely
/// and canonically or not at all.
class BodyReader {
 public:
  explicit BodyReader(std::span<const std::uint8_t> body)
      : p_(body.data()), end_(body.data() + body.size()) {}

  std::uint64_t u64() {
    std::uint64_t x = 0;
    p_ = core::get_uvarint(p_, end_, x);
    return x;
  }

  std::int64_t i64() { return core::unzigzag(u64()); }

  std::int32_t i32() {
    const std::int64_t x = i64();
    NORS_CHECK_MSG(x >= INT32_MIN && x <= INT32_MAX,
                   "wire field out of int32 range");
    return static_cast<std::int32_t>(x);
  }

  std::span<const std::uint8_t> bytes(std::size_t len) {
    NORS_CHECK_MSG(static_cast<std::size_t>(end_ - p_) >= len,
                   "wire body truncated");
    const auto* at = p_;
    p_ += len;
    return {at, len};
  }

  void finish() const {
    NORS_CHECK_MSG(p_ == end_, "trailing bytes after wire body");
  }

  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

}  // namespace

ParseResult parse_frame(const std::uint8_t* data, std::size_t len) {
  ParseResult r;
  // Reject envelope fields as soon as their bytes arrive, so garbage is
  // caught without waiting for (or allocating) a "body" the length prefix
  // promises.
  if (len >= 4 && read_le<std::uint32_t>(data) != kMagic) {
    r.status = ParseResult::Status::kBad;
    r.error = ErrorCode::kBadMagic;
    return r;
  }
  if (len >= 5 && data[4] != kProtoVersion) {
    r.status = ParseResult::Status::kBad;
    r.error = ErrorCode::kBadVersion;
    return r;
  }
  if (len >= 8 && read_le<std::uint16_t>(data + 6) != 0) {
    r.status = ParseResult::Status::kBad;
    r.error = ErrorCode::kBadFlags;
    return r;
  }
  if (len < kHeaderBytes) return r;  // kNeedMore

  r.request_id = read_le<std::uint32_t>(data + 8);
  const std::uint32_t body_len = read_le<std::uint32_t>(data + 12);
  if (body_len > kMaxBody) {
    r.status = ParseResult::Status::kBad;
    r.error = ErrorCode::kBadLength;
    return r;
  }
  const std::size_t total = kHeaderBytes + body_len + kChecksumBytes;
  if (len < total) return r;  // kNeedMore

  const std::uint64_t want =
      read_le<std::uint64_t>(data + kHeaderBytes + body_len);
  if (fnv1a(data, kHeaderBytes + body_len) != want) {
    r.status = ParseResult::Status::kBad;
    r.error = ErrorCode::kBadChecksum;
    return r;
  }
  if (!known_request_type(data[5])) {
    // Checksummed, so it's a well-formed frame of an unknown type: a
    // recoverable error (the stream stays in sync).
    r.status = ParseResult::Status::kBad;
    r.error = ErrorCode::kBadType;
    r.consumed = total;
    return r;
  }

  r.status = ParseResult::Status::kFrame;
  r.consumed = total;
  r.frame.type = static_cast<FrameType>(data[5]);
  r.frame.request_id = r.request_id;
  r.frame.body.assign(data + kHeaderBytes, data + kHeaderBytes + body_len);
  return r;
}

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint32_t request_id,
                  std::span<const std::uint8_t> body) {
  NORS_CHECK_MSG(body.size() <= kMaxBody, "frame body exceeds kMaxBody");
  const std::size_t at = out.size();
  out.resize(at + kHeaderBytes + body.size() + kChecksumBytes);
  std::uint8_t* p = out.data() + at;
  write_le<std::uint32_t>(p, kMagic);
  p[4] = kProtoVersion;
  p[5] = static_cast<std::uint8_t>(type);
  write_le<std::uint16_t>(p + 6, 0);
  write_le<std::uint32_t>(p + 8, request_id);
  write_le<std::uint32_t>(p + 12, static_cast<std::uint32_t>(body.size()));
  if (!body.empty()) {
    std::memcpy(p + kHeaderBytes, body.data(), body.size());
  }
  write_le<std::uint64_t>(p + kHeaderBytes + body.size(),
                          fnv1a(p, kHeaderBytes + body.size()));
}

void encode_route_request(std::vector<std::uint8_t>& body,
                          const serve::Query* queries, std::size_t count) {
  NORS_CHECK_MSG(count <= kMaxQueriesPerFrame,
                 "route frame too large: split the batch");
  core::put_uvarint(body, count);
  for (std::size_t i = 0; i < count; ++i) {
    core::put_uvarint(body, core::zigzag(queries[i].u));
    core::put_uvarint(body, core::zigzag(queries[i].v));
  }
}

std::vector<serve::Query> decode_route_request(
    std::span<const std::uint8_t> body) {
  BodyReader r(body);
  const std::uint64_t count = r.u64();
  NORS_CHECK_MSG(count <= kMaxQueriesPerFrame,
                 "route frame count exceeds the per-frame cap");
  std::vector<serve::Query> qs(static_cast<std::size_t>(count));
  for (auto& q : qs) {
    q.u = r.i32();
    q.v = r.i32();
  }
  r.finish();
  return qs;
}

void encode_route_response(std::vector<std::uint8_t>& body,
                           const serve::Decision* decisions,
                           std::size_t count) {
  core::put_uvarint(body, count);
  for (std::size_t i = 0; i < count; ++i) {
    const serve::Decision& d = decisions[i];
    const std::uint64_t flags = (d.ok ? 1u : 0u) | (d.via_trick ? 2u : 0u);
    core::put_uvarint(body, flags);
    core::put_uvarint(body, core::zigzag(d.hops));
    core::put_uvarint(body, core::zigzag(d.tree_level));
    core::put_uvarint(body, core::zigzag(d.tree_root));
    core::put_uvarint(body, core::zigzag(d.length));
  }
}

std::vector<serve::Decision> decode_route_response(
    std::span<const std::uint8_t> body) {
  BodyReader r(body);
  const std::uint64_t count = r.u64();
  NORS_CHECK_MSG(count <= kMaxQueriesPerFrame, "response count over cap");
  std::vector<serve::Decision> ds(static_cast<std::size_t>(count));
  for (auto& d : ds) {
    const std::uint64_t flags = r.u64();
    NORS_CHECK_MSG(flags <= 3, "unknown decision flags");
    d.ok = (flags & 1) != 0;
    d.via_trick = (flags & 2) != 0;
    d.hops = r.i32();
    d.tree_level = r.i32();
    d.tree_root = r.i32();
    d.length = r.i64();
  }
  r.finish();
  return ds;
}

void encode_hello_ack(std::vector<std::uint8_t>& body, const ServerInfo& i) {
  core::put_uvarint(body, i.proto_version);
  core::put_uvarint(body, core::zigzag(i.n));
  core::put_uvarint(body, core::zigzag(i.k));
  core::put_uvarint(body, i.image_version);
  core::put_uvarint(body, core::zigzag(i.num_trees));
  core::put_uvarint(body, i.window);
}

ServerInfo decode_hello_ack(std::span<const std::uint8_t> body) {
  BodyReader r(body);
  ServerInfo i;
  i.proto_version = static_cast<std::uint32_t>(r.u64());
  i.n = r.i32();
  i.k = r.i32();
  i.image_version = static_cast<std::uint32_t>(r.u64());
  i.num_trees = r.i32();
  i.window = static_cast<std::uint32_t>(r.u64());
  r.finish();
  return i;
}

void encode_label_request(std::vector<std::uint8_t>& body, graph::Vertex v) {
  core::put_uvarint(body, core::zigzag(v));
}

graph::Vertex decode_label_request(std::span<const std::uint8_t> body) {
  BodyReader r(body);
  const graph::Vertex v = r.i32();
  r.finish();
  return v;
}

void encode_label_response(std::vector<std::uint8_t>& body,
                           std::span<const std::uint8_t> label) {
  core::put_uvarint(body, label.size());
  body.insert(body.end(), label.begin(), label.end());
}

std::vector<std::uint8_t> decode_label_response(
    std::span<const std::uint8_t> body) {
  BodyReader r(body);
  const std::uint64_t len = r.u64();
  NORS_CHECK_MSG(len <= kMaxBody, "label length over body cap");
  const auto bytes = r.bytes(static_cast<std::size_t>(len));
  r.finish();
  return {bytes.begin(), bytes.end()};
}

void encode_stats_ack(std::vector<std::uint8_t>& body, const WireStats& s) {
  for (const std::int64_t v :
       {s.conns_accepted, s.conns_active, s.frames_in, s.frames_out,
        s.queries, s.protocol_errors, s.reloads, s.max_inflight, s.p50_ns,
        s.p99_ns, s.shed, s.timeouts, s.stalls, s.updates, s.masked,
        s.repaired, s.update_seq, s.wal_records, s.wal_errors,
        s.checkpoints, s.repl_applied, s.repl_lag, s.subscribers}) {
    core::put_uvarint(body, core::zigzag(v));
  }
}

WireStats decode_stats_ack(std::span<const std::uint8_t> body) {
  BodyReader r(body);
  WireStats s;
  for (std::int64_t* v :
       {&s.conns_accepted, &s.conns_active, &s.frames_in, &s.frames_out,
        &s.queries, &s.protocol_errors, &s.reloads, &s.max_inflight,
        &s.p50_ns, &s.p99_ns, &s.shed, &s.timeouts, &s.stalls, &s.updates,
        &s.masked, &s.repaired, &s.update_seq, &s.wal_records,
        &s.wal_errors, &s.checkpoints, &s.repl_applied, &s.repl_lag,
        &s.subscribers}) {
    *v = r.i64();
  }
  r.finish();
  return s;
}

void encode_update_request(std::vector<std::uint8_t>& body,
                           std::span<const serve::EdgeUpdate> updates) {
  NORS_CHECK_MSG(updates.size() <= kMaxUpdatesPerFrame,
                 "update frame too large: split the batch");
  // The batch bytes are the shared serve:: codec, so a WAL record body
  // and a kUpdate body are interchangeable (DESIGN.md §14).
  serve::encode_edge_updates(body, updates);
}

std::vector<serve::EdgeUpdate> decode_update_request(
    std::span<const std::uint8_t> body) {
  std::vector<serve::EdgeUpdate> us;
  const std::uint8_t* p = serve::decode_edge_updates(
      body.data(), body.data() + body.size(), us, kMaxUpdatesPerFrame);
  NORS_CHECK_MSG(p == body.data() + body.size(),
                 "trailing bytes after wire body");
  return us;
}

void encode_update_ack(std::vector<std::uint8_t>& body, const UpdateAck& a) {
  core::put_uvarint(body, a.seq);
  for (const std::int64_t v : {a.applied, a.unknown_edges, a.overrides,
                               a.failed_links, a.masked_trees}) {
    core::put_uvarint(body, core::zigzag(v));
  }
}

UpdateAck decode_update_ack(std::span<const std::uint8_t> body) {
  BodyReader r(body);
  UpdateAck a;
  a.seq = r.u64();
  for (std::int64_t* v : {&a.applied, &a.unknown_edges, &a.overrides,
                          &a.failed_links, &a.masked_trees}) {
    *v = r.i64();
  }
  r.finish();
  return a;
}

void encode_repl(std::vector<std::uint8_t>& body, const ReplFrame& f) {
  NORS_CHECK_MSG(f.events.size() <= kMaxUpdatesPerFrame,
                 "repl frame too large: chunk the batch");
  core::put_uvarint(body, f.seq);
  core::put_uvarint(body, f.head_seq);
  core::put_uvarint(body,
                    (f.snapshot ? 1u : 0u) | (f.more ? 2u : 0u));
  serve::encode_edge_updates(body, f.events);
}

ReplFrame decode_repl(std::span<const std::uint8_t> body) {
  BodyReader r(body);
  ReplFrame f;
  f.seq = r.u64();
  f.head_seq = r.u64();
  const std::uint64_t flags = r.u64();
  NORS_CHECK_MSG(flags <= 3, "unknown repl flags");
  f.snapshot = (flags & 1) != 0;
  f.more = (flags & 2) != 0;
  NORS_CHECK_MSG(f.seq <= f.head_seq, "repl seq ahead of head");
  const std::size_t consumed =
      static_cast<std::size_t>(body.size()) -
      static_cast<std::size_t>(r.remaining());
  const std::uint8_t* p = serve::decode_edge_updates(
      body.data() + consumed, body.data() + body.size(), f.events,
      kMaxUpdatesPerFrame);
  NORS_CHECK_MSG(p == body.data() + body.size(),
                 "trailing bytes after wire body");
  return f;
}

void encode_subscribe(std::vector<std::uint8_t>& body,
                      std::uint64_t have_seq) {
  core::put_uvarint(body, have_seq);
}

std::uint64_t decode_subscribe(std::span<const std::uint8_t> body) {
  BodyReader r(body);
  const std::uint64_t have = r.u64();
  r.finish();
  return have;
}

void encode_subscribe_ack(std::vector<std::uint8_t>& body,
                          std::uint64_t head_seq) {
  core::put_uvarint(body, head_seq);
}

std::uint64_t decode_subscribe_ack(std::span<const std::uint8_t> body) {
  BodyReader r(body);
  const std::uint64_t head = r.u64();
  r.finish();
  return head;
}

void encode_checkpoint_ack(std::vector<std::uint8_t>& body,
                           const CheckpointAck& a) {
  core::put_uvarint(body, a.seq);
  for (const std::int64_t v : {a.squashed, a.image_rebuilt, a.wal_segments}) {
    core::put_uvarint(body, core::zigzag(v));
  }
}

CheckpointAck decode_checkpoint_ack(std::span<const std::uint8_t> body) {
  BodyReader r(body);
  CheckpointAck a;
  a.seq = r.u64();
  for (std::int64_t* v : {&a.squashed, &a.image_rebuilt, &a.wal_segments}) {
    *v = r.i64();
  }
  r.finish();
  return a;
}

void encode_error(std::vector<std::uint8_t>& body, ErrorCode code,
                  const std::string& message) {
  NORS_CHECK_MSG(code != ErrorCode::kOverloaded,
                 "kOverloaded frames carry a hint: use encode_overloaded");
  core::put_uvarint(body, static_cast<std::uint64_t>(code));
  core::put_uvarint(body, message.size());
  body.insert(body.end(), message.begin(), message.end());
}

void encode_overloaded(std::vector<std::uint8_t>& body,
                       std::uint32_t retry_after_ms,
                       const std::string& message) {
  core::put_uvarint(body,
                    static_cast<std::uint64_t>(ErrorCode::kOverloaded));
  core::put_uvarint(body, retry_after_ms);
  core::put_uvarint(body, message.size());
  body.insert(body.end(), message.begin(), message.end());
}

WireError decode_error(std::span<const std::uint8_t> body) {
  BodyReader r(body);
  WireError e;
  const std::uint64_t code = r.u64();
  NORS_CHECK_MSG(code <= 0xff, "error code out of range");
  e.code = static_cast<ErrorCode>(code);
  if (e.code == ErrorCode::kOverloaded) {
    const std::uint64_t hint = r.u64();
    NORS_CHECK_MSG(hint <= 0xffffffffull, "retry-after hint out of range");
    e.retry_after_ms = static_cast<std::uint32_t>(hint);
  }
  const std::uint64_t len = r.u64();
  NORS_CHECK_MSG(len <= kMaxBody, "error message over body cap");
  const auto bytes = r.bytes(static_cast<std::size_t>(len));
  e.message.assign(bytes.begin(), bytes.end());
  r.finish();
  return e;
}

}  // namespace nors::net

#include "server/protocol.hpp"

#include <sys/uio.h>

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/posix_io.hpp"
#include "io/binary_codec.hpp"

namespace cube::server {

namespace {

/// Every decoder maps the codec's CheckError (truncation inside a field)
/// onto ProtocolError, so the session layer reports one structured
/// category for all malformed input.
template <typename Fn>
auto decoding(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const CheckError& e) {
    throw ProtocolError(std::string("malformed ") + what + " payload: " +
                        e.detail());
  }
}

void require_done(const detail::BinaryDecoder& d, const char* what) {
  if (!d.done()) {
    throw ProtocolError(std::string("malformed ") + what +
                        " payload: trailing bytes after the last field");
  }
}

void put_u32(char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>(v >> (8 * i));
}

void put_u64(char* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>(v >> (8 * i));
}

std::uint32_t get_u32(const char* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const char* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[i]))
         << (8 * i);
  }
  return v;
}

constexpr std::size_t kHeaderSize = 16;
/// The Result's severity blob starts at a multiple of this payload offset.
constexpr std::size_t kResultBlobAlign = 8;

bool known_type(std::uint32_t t) {
  return t >= static_cast<std::uint32_t>(MsgType::Hello) &&
         t <= static_cast<std::uint32_t>(MsgType::HealthOk);
}

}  // namespace

const char* msg_type_name(MsgType type) noexcept {
  switch (type) {
    case MsgType::Hello: return "Hello";
    case MsgType::HelloOk: return "HelloOk";
    case MsgType::Query: return "Query";
    case MsgType::Result: return "Result";
    case MsgType::Error: return "Error";
    case MsgType::Busy: return "Busy";
    case MsgType::Ping: return "Ping";
    case MsgType::Pong: return "Pong";
    case MsgType::Stats: return "Stats";
    case MsgType::StatsOk: return "StatsOk";
    case MsgType::Shutdown: return "Shutdown";
    case MsgType::ShutdownOk: return "ShutdownOk";
    case MsgType::Health: return "Health";
    case MsgType::HealthOk: return "HealthOk";
  }
  return "unknown";
}

std::size_t write_frame(int fd, MsgType type, std::string_view payload) {
  char header[kHeaderSize];
  put_u32(header, kFrameMagic);
  put_u32(header + 4, static_cast<std::uint32_t>(type));
  put_u64(header + 8, payload.size());
  // One header write, one payload write: both EINTR-safe and resumed
  // across partial transfers, so a frame can never be torn by a signal.
  write_full(fd, header, kHeaderSize);
  if (!payload.empty()) write_full(fd, payload.data(), payload.size());
  return kHeaderSize + payload.size();
}

std::optional<Frame> read_frame(int fd, std::uint64_t max_payload) {
  char header[kHeaderSize];
  const std::size_t got = read_full(fd, header, kHeaderSize);
  if (got == 0) return std::nullopt;  // clean EOF between frames
  if (got < kHeaderSize) {
    throw ProtocolError("stream ended inside a frame header (" +
                        std::to_string(got) + " of " +
                        std::to_string(kHeaderSize) + " bytes)");
  }
  if (get_u32(header) != kFrameMagic) {
    throw ProtocolError("bad frame magic (not a cubed peer?)");
  }
  const std::uint32_t raw_type = get_u32(header + 4);
  if (!known_type(raw_type)) {
    throw ProtocolError("unknown message type " + std::to_string(raw_type));
  }
  const std::uint64_t len = get_u64(header + 8);
  if (len > max_payload) {
    throw ProtocolError("frame payload of " + std::to_string(len) +
                        " bytes exceeds the " + std::to_string(max_payload) +
                        "-byte ceiling");
  }
  Frame frame;
  frame.type = static_cast<MsgType>(raw_type);
  frame.payload.resize(static_cast<std::size_t>(len));
  if (len > 0) {
    const std::size_t body = read_full(fd, frame.payload.data(),
                                       frame.payload.size());
    if (body < frame.payload.size()) {
      throw ProtocolError("stream ended inside a " +
                          std::string(msg_type_name(frame.type)) +
                          " payload (" + std::to_string(body) + " of " +
                          std::to_string(len) + " bytes)");
    }
  }
  return frame;
}

// --- payload codecs -------------------------------------------------------

std::string encode_hello(const HelloPayload& p) {
  std::ostringstream out;
  detail::BinaryEncoder e(out);
  e.u32(p.version);
  e.str(p.client);
  return out.str();
}

HelloPayload decode_hello(std::string_view payload) {
  return decoding("Hello", [&] {
    detail::BinaryDecoder d(payload);
    HelloPayload p;
    p.version = d.u32();
    p.client = d.str();
    require_done(d, "Hello");
    return p;
  });
}

std::string encode_hello_ok(const HelloOkPayload& p) {
  std::ostringstream out;
  detail::BinaryEncoder e(out);
  e.u32(p.version);
  e.str(p.server);
  e.u64(p.generation);
  return out.str();
}

HelloOkPayload decode_hello_ok(std::string_view payload) {
  return decoding("HelloOk", [&] {
    detail::BinaryDecoder d(payload);
    HelloOkPayload p;
    p.version = d.u32();
    p.server = d.str();
    p.generation = d.u64();
    require_done(d, "HelloOk");
    return p;
  });
}

std::string encode_query(const QueryPayload& p) {
  std::ostringstream out;
  detail::BinaryEncoder e(out);
  e.str(p.text);
  e.u32(p.flags);
  e.u64(p.request_id);
  return out.str();
}

QueryPayload decode_query(std::string_view payload) {
  return decoding("Query", [&] {
    detail::BinaryDecoder d(payload);
    QueryPayload p;
    p.text = d.str();
    p.flags = d.u32();
    // Peers that predate request ids end the payload here; decode as the
    // unset id rather than a framing violation.
    if (d.done()) return p;
    p.request_id = d.u64();
    require_done(d, "Query");
    return p;
  });
}

namespace {

void append_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  put_u32(buf, v);
  out.append(buf, 4);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  put_u64(buf, v);
  out.append(buf, 8);
}

void append_f64(std::string& out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

void append_str(std::string& out, std::string_view s) {
  append_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

std::string_view view_of(const std::shared_ptr<const std::string>& blob) {
  return blob ? std::string_view(*blob) : std::string_view();
}

/// A Result payload in wire order: the encoded fields around the two
/// shared blobs, which are referenced, never copied.
struct ResultParts {
  std::string head;  ///< `lead` reserved bytes, then served .. meta length
  std::string_view meta;
  std::string tail;  ///< meta_digest, attributes, pad
  std::string_view severity;

  [[nodiscard]] std::size_t payload_size(std::size_t lead) const {
    return head.size() - lead + meta.size() + tail.size() + severity.size();
  }
};

/// Encodes `p`, leaving `lead` bytes at the front of `head` for the caller
/// (the frame header); the pad is computed from the payload's start.
ResultParts result_parts(const ResultPayload& p, std::size_t lead) {
  ResultParts parts;
  parts.meta = view_of(p.meta_blob);
  parts.severity = view_of(p.severity);
  parts.head.reserve(lead + 4 + 8 + 4 + p.canonical.size() + 4);
  parts.head.resize(lead);
  append_u32(parts.head, static_cast<std::uint32_t>(p.served));
  append_f64(parts.head, p.server_ms);
  append_str(parts.head, p.canonical);
  append_u32(parts.head, static_cast<std::uint32_t>(parts.meta.size()));
  append_u64(parts.tail, p.meta_digest);
  append_u32(parts.tail, static_cast<std::uint32_t>(p.attributes.size()));
  for (const auto& [key, value] : p.attributes) {
    append_str(parts.tail, key);
    append_str(parts.tail, value);
  }
  const std::size_t before_pad =
      parts.head.size() - lead + parts.meta.size() + parts.tail.size() + 4;
  const std::uint32_t pad = static_cast<std::uint32_t>(
      (kResultBlobAlign - before_pad % kResultBlobAlign) % kResultBlobAlign);
  append_u32(parts.tail, pad);
  parts.tail.append(pad, '\0');
  return parts;
}

}  // namespace

std::string encode_result(const ResultPayload& p) {
  const ResultParts parts = result_parts(p, 0);
  std::string out;
  out.reserve(parts.payload_size(0));
  out.append(parts.head);
  out.append(parts.meta);
  out.append(parts.tail);
  out.append(parts.severity);
  return out;
}

std::size_t write_result_frame(int fd, const ResultPayload& p) {
  ResultParts parts = result_parts(p, kHeaderSize);
  const std::size_t payload = parts.payload_size(kHeaderSize);
  put_u32(parts.head.data(), kFrameMagic);
  put_u32(parts.head.data() + 4, static_cast<std::uint32_t>(MsgType::Result));
  put_u64(parts.head.data() + 8, payload);
  iovec iov[4] = {
      {parts.head.data(), parts.head.size()},
      {const_cast<char*>(parts.meta.data()), parts.meta.size()},
      {parts.tail.data(), parts.tail.size()},
      {const_cast<char*>(parts.severity.data()), parts.severity.size()},
  };
  writev_full(fd, iov, 4);
  return kHeaderSize + payload;
}

ResultView decode_result_view(std::string_view payload) {
  return decoding("Result", [&] {
    detail::BinaryDecoder d(payload);
    ResultView v;
    const std::uint32_t served = d.u32();
    if (served > static_cast<std::uint32_t>(Served::Coalesced)) {
      throw ProtocolError("malformed Result payload: unknown served mode " +
                          std::to_string(served));
    }
    v.served = static_cast<Served>(served);
    v.server_ms = d.f64();
    v.canonical = d.str_view();
    v.meta_blob = d.str_view();
    v.meta_digest = d.u64();
    const std::uint32_t n = d.u32();
    // Each attribute takes at least its two length prefixes: a count
    // beyond what the payload can hold fails on the first short read
    // below instead of reserving for it.
    v.attributes.reserve(std::min<std::size_t>(n, d.remaining() / 8));
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::string_view key = d.str_view();
      v.attributes.emplace_back(key, d.str_view());
    }
    const std::uint32_t pad = d.u32();
    if (pad >= kResultBlobAlign) {
      throw ProtocolError("malformed Result payload: pad of " +
                          std::to_string(pad) + " bytes");
    }
    if (d.bytes(pad).find_first_not_of('\0') != std::string_view::npos) {
      throw ProtocolError("malformed Result payload: nonzero pad bytes");
    }
    v.severity_offset = d.position();
    if (v.severity_offset % kResultBlobAlign != 0) {
      throw ProtocolError(
          "malformed Result payload: severity blob at misaligned offset " +
          std::to_string(v.severity_offset));
    }
    v.severity = d.bytes(d.remaining());
    return v;
  });
}

ResultPayload decode_result(std::string_view payload) {
  const ResultView v = decode_result_view(payload);
  ResultPayload p;
  p.served = v.served;
  p.server_ms = v.server_ms;
  p.canonical = std::string(v.canonical);
  if (!v.meta_blob.empty()) {
    p.meta_blob = std::make_shared<const std::string>(v.meta_blob);
  }
  p.meta_digest = v.meta_digest;
  for (const auto& [key, value] : v.attributes) {
    p.attributes.emplace(key, value);
  }
  p.severity = std::make_shared<const std::string>(v.severity);
  return p;
}

std::string encode_error(const ErrorPayload& p) {
  std::ostringstream out;
  detail::BinaryEncoder e(out);
  e.str(p.category);
  e.str(p.message);
  e.u32(static_cast<std::uint32_t>(p.diagnostics.size()));
  for (const WireDiagnostic& diag : p.diagnostics) {
    e.str(diag.rule);
    e.u32(diag.level);
    e.str(diag.location);
    e.str(diag.message);
    e.str(diag.hint);
  }
  return out.str();
}

ErrorPayload decode_error(std::string_view payload) {
  return decoding("Error", [&] {
    detail::BinaryDecoder d(payload);
    ErrorPayload p;
    p.category = d.str();
    p.message = d.str();
    // Peers that predate structured diagnostics end the payload here;
    // treat that as an empty list rather than a framing violation.
    if (d.done()) return p;
    const std::uint32_t n = d.u32();
    p.diagnostics.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      WireDiagnostic diag;
      diag.rule = d.str();
      diag.level = d.u32();
      diag.location = d.str();
      diag.message = d.str();
      diag.hint = d.str();
      p.diagnostics.push_back(std::move(diag));
    }
    require_done(d, "Error");
    return p;
  });
}

std::string encode_busy(const BusyPayload& p) {
  std::ostringstream out;
  detail::BinaryEncoder e(out);
  e.u32(p.retry_ms);
  e.u64(p.inflight);
  e.f64(p.queue_wait_ms);
  e.str(p.reason);
  return out.str();
}

BusyPayload decode_busy(std::string_view payload) {
  return decoding("Busy", [&] {
    detail::BinaryDecoder d(payload);
    BusyPayload p;
    p.retry_ms = d.u32();
    p.inflight = d.u64();
    p.queue_wait_ms = d.f64();
    p.reason = d.str();
    require_done(d, "Busy");
    return p;
  });
}

std::string encode_stats(const StatsPayload& p) {
  std::ostringstream out;
  detail::BinaryEncoder e(out);
  e.u32(static_cast<std::uint32_t>(p.samples.size()));
  for (const obs::MetricSample& s : p.samples) {
    e.str(s.name);
    e.u32(static_cast<std::uint32_t>(s.kind));
    e.u32(static_cast<std::uint32_t>(s.unit));
    e.f64(s.value);
    e.u64(s.count);
    e.f64(s.min);
    e.f64(s.max);
    e.f64(s.p50);
    e.f64(s.p90);
    e.f64(s.p99);
  }
  e.str(p.json);
  e.u32(static_cast<std::uint32_t>(p.slow.size()));
  for (const WireSlowQuery& q : p.slow) {
    e.u64(q.request_id);
    e.str(q.canonical);
    e.str(q.outcome);
    e.f64(q.server_ms);
    e.f64(q.plan_ms);
    e.f64(q.compute_ms);
    e.f64(q.serialize_ms);
    e.u64(q.sequence);
  }
  return out.str();
}

StatsPayload decode_stats(std::string_view payload) {
  return decoding("StatsOk", [&] {
    detail::BinaryDecoder d(payload);
    StatsPayload p;
    const std::uint32_t n = d.u32();
    p.samples.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      obs::MetricSample s;
      s.name = d.str();
      s.kind = static_cast<obs::InstrumentKind>(d.u32());
      s.unit = static_cast<obs::SampleUnit>(d.u32());
      s.value = d.f64();
      s.count = d.u64();
      s.min = d.f64();
      s.max = d.f64();
      s.p50 = d.f64();
      s.p90 = d.f64();
      s.p99 = d.f64();
      p.samples.push_back(std::move(s));
    }
    // The json document and the slow-query list are appended after the
    // sample list; a payload that ends at either boundary (a minimal
    // StatsOk) decodes with the missing fields empty.
    if (d.done()) return p;
    p.json = d.str();
    if (d.done()) return p;
    const std::uint32_t slow_n = d.u32();
    p.slow.reserve(slow_n);
    for (std::uint32_t i = 0; i < slow_n; ++i) {
      WireSlowQuery q;
      q.request_id = d.u64();
      q.canonical = d.str();
      q.outcome = d.str();
      q.server_ms = d.f64();
      q.plan_ms = d.f64();
      q.compute_ms = d.f64();
      q.serialize_ms = d.f64();
      q.sequence = d.u64();
      p.slow.push_back(std::move(q));
    }
    require_done(d, "StatsOk");
    return p;
  });
}

std::string encode_health(const HealthPayload& p) {
  std::ostringstream out;
  detail::BinaryEncoder e(out);
  e.str(p.json);
  return out.str();
}

HealthPayload decode_health(std::string_view payload) {
  return decoding("HealthOk", [&] {
    detail::BinaryDecoder d(payload);
    HealthPayload p;
    p.json = d.str();
    require_done(d, "HealthOk");
    return p;
  });
}

}  // namespace cube::server

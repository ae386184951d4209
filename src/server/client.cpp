#include "server/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <utility>

#include "common/byte_owner.hpp"
#include "common/digest.hpp"
#include "io/meta_format.hpp"
#include "io/severity_format.hpp"

namespace cube::server {

namespace {

int connect_unix(const std::filesystem::path& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string spath = path.string();
  if (spath.size() >= sizeof(addr.sun_path)) {
    throw IoError("socket path too long for sockaddr_un: " + spath);
  }
  std::memcpy(addr.sun_path, spath.c_str(), spath.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw IoError(std::string("socket: ") + std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd);
    throw IoError("connect " + spath + ": " + std::strerror(saved));
  }
  return fd;
}

}  // namespace

ClientResult decode_client_result(std::string payload, MetadataStore& metas) {
  const std::size_t wire_bytes = payload.size();
  auto frame = std::make_shared<const HeapBytes>(std::move(payload));
  const ResultView view = decode_result_view(frame->str());
  if (!view.meta_blob.empty()) {
    std::shared_ptr<const Metadata> md = read_cube_meta(view.meta_blob);
    if (md->digest() != view.meta_digest) {
      throw ProtocolError("malformed Result payload: metadata blob digest " +
                          digest_hex(md->digest()) +
                          " does not match the result's " +
                          digest_hex(view.meta_digest));
    }
    metas[md->digest()] = std::move(md);
  }
  const auto it = metas.find(view.meta_digest);
  if (it == metas.end()) {
    throw ProtocolError("Result references metadata " +
                        digest_hex(view.meta_digest) +
                        " this session never received");
  }
  Experiment experiment(
      it->second, borrow_cube_sev(frame, view.severity_offset,
                                  view.severity.size(), "Result severity"));
  for (const auto& [key, value] : view.attributes) {
    experiment.set_attribute(std::string(key), std::string(value));
  }
  return ClientResult{std::move(experiment),
                      view.served,
                      std::string(view.canonical),
                      view.server_ms,
                      wire_bytes,
                      !view.meta_blob.empty()};
}

CubeClient::CubeClient(ClientConfig config) : config_(std::move(config)) {
  // A server vanishing mid-write must surface as EPIPE/IoError, not kill
  // the client process.
  ::signal(SIGPIPE, SIG_IGN);
  fd_ = connect_unix(config_.socket_path);
  // Seed auto-assigned request ids so two sessions against one daemon do
  // not both start at 1 (a SplitMix64 step over pid ^ connect time; the
  // low bits stay an in-session sequence, which keeps ids readable).
  {
    std::uint64_t seed =
        (static_cast<std::uint64_t>(::getpid()) << 32) ^
        static_cast<std::uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count());
    seed += 0x9e3779b97f4a7c15ull;
    seed = (seed ^ (seed >> 30)) * 0xbf58476d1ce4e5b9ull;
    seed = (seed ^ (seed >> 27)) * 0x94d049bb133111ebull;
    next_request_id_ = (seed << 20) | 1;  // never 0
  }
  try {
    HelloPayload hello;
    hello.client = config_.name;
    const Frame reply =
        round_trip(MsgType::Hello, encode_hello(hello), MsgType::HelloOk);
    const HelloOkPayload ok = decode_hello_ok(reply.payload);
    if (ok.version != kProtocolVersion) {
      throw ProtocolError("server speaks protocol version " +
                          std::to_string(ok.version) + ", client speaks " +
                          std::to_string(kProtocolVersion));
    }
    generation_ = ok.generation;
    server_name_ = ok.server;
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

CubeClient::~CubeClient() {
  if (fd_ >= 0) ::close(fd_);
}

Frame CubeClient::round_trip(MsgType type, std::string_view payload,
                             MsgType expected) {
  (void)write_frame(fd_, type, payload);
  std::optional<Frame> reply = read_frame(fd_, config_.max_payload);
  if (!reply) {
    throw IoError("server closed the connection before replying");
  }
  if (reply->type == MsgType::Error) {
    throw RemoteError(decode_error(reply->payload));
  }
  if (reply->type != expected) {
    throw ProtocolError(std::string("expected ") + msg_type_name(expected) +
                        ", got " + msg_type_name(reply->type));
  }
  return std::move(*reply);
}

ResultPayload CubeClient::query_raw(const std::string& text,
                                    std::uint64_t request_id) {
  QueryPayload query;
  query.text = text;
  query.request_id = request_id != 0 ? request_id : next_request_id_++;
  last_request_id_ = query.request_id;
  const std::string encoded = encode_query(query);
  (void)write_frame(fd_, MsgType::Query, encoded);
  std::optional<Frame> reply = read_frame(fd_, config_.max_payload);
  if (!reply) {
    throw IoError("server closed the connection before replying");
  }
  switch (reply->type) {
    case MsgType::Result:
      return decode_result(reply->payload);
    case MsgType::Busy:
      throw BusyError(decode_busy(reply->payload));
    case MsgType::Error:
      throw RemoteError(decode_error(reply->payload));
    default:
      throw ProtocolError(std::string("expected Result, got ") +
                          msg_type_name(reply->type));
  }
}

ClientResult CubeClient::query(const std::string& text,
                               std::uint64_t request_id) {
  QueryPayload query;
  query.text = text;
  query.request_id = request_id != 0 ? request_id : next_request_id_++;
  last_request_id_ = query.request_id;
  const std::string encoded = encode_query(query);
  (void)write_frame(fd_, MsgType::Query, encoded);
  std::optional<Frame> reply = read_frame(fd_, config_.max_payload);
  if (!reply) {
    throw IoError("server closed the connection before replying");
  }
  if (reply->type == MsgType::Busy) {
    throw BusyError(decode_busy(reply->payload));
  }
  if (reply->type == MsgType::Error) {
    throw RemoteError(decode_error(reply->payload));
  }
  if (reply->type != MsgType::Result) {
    throw ProtocolError(std::string("expected Result, got ") +
                        msg_type_name(reply->type));
  }
  return decode_client_result(std::move(reply->payload), metas_);
}

StatsPayload CubeClient::stats() {
  const Frame reply = round_trip(MsgType::Stats, {}, MsgType::StatsOk);
  return decode_stats(reply.payload);
}

HealthPayload CubeClient::health() {
  const Frame reply = round_trip(MsgType::Health, {}, MsgType::HealthOk);
  return decode_health(reply.payload);
}

void CubeClient::ping() {
  (void)round_trip(MsgType::Ping, {}, MsgType::Pong);
}

void CubeClient::shutdown_server() {
  (void)round_trip(MsgType::Shutdown, {}, MsgType::ShutdownOk);
}

}  // namespace cube::server

// CubeClient: a thin synchronous client for the cubed daemon.
//
// One client is one session over the unix-domain socket: connect, Hello
// handshake, then request/response frames.  Results decode back into
// Experiment through the session's metadata store — the server ships a
// CUBEMET1 blob only the first time a metadata digest appears, and the
// client interns the decoded Metadata so every later result over the
// same digest shares the instance (pointer-equal, like the repository's
// interner).  The result's severity store BORROWS the received frame: it
// views the CUBESEV1 blob in place, kept alive by a shared_ptr, and
// copies only if the caller mutates it.
//
// NOT thread-safe: one CubeClient per thread (sessions are cheap; the
// daemon multiplexes them onto a shared service).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "model/experiment.hpp"
#include "server/protocol.hpp"

namespace cube::server {

/// The server shed the request (admission control).  Carries the
/// structured Busy payload so callers can honor retry_ms.
class BusyError : public Error {
 public:
  explicit BusyError(BusyPayload payload)
      : Error("server busy: " + payload.reason +
              " (retry in " + std::to_string(payload.retry_ms) + " ms)"),
        payload_(std::move(payload)) {}
  [[nodiscard]] const BusyPayload& payload() const noexcept {
    return payload_;
  }

 private:
  BusyPayload payload_;
};

/// The server answered with an Error frame (the query failed remotely).
class RemoteError : public Error {
 public:
  explicit RemoteError(ErrorPayload payload)
      : Error(payload.category + ": " + payload.message),
        payload_(std::move(payload)) {}
  [[nodiscard]] const ErrorPayload& payload() const noexcept {
    return payload_;
  }

 private:
  ErrorPayload payload_;
};

struct ClientConfig {
  std::filesystem::path socket_path;
  /// Client name reported in Hello.
  std::string name = "cube_client";
  std::uint64_t max_payload = kDefaultMaxPayload;
};

struct ClientResult {
  Experiment experiment;
  Served served = Served::Computed;
  std::string canonical;
  double server_ms = 0.0;       ///< service time the server measured
  std::size_t wire_bytes = 0;   ///< Result payload size on the wire
  bool meta_shipped = false;    ///< this result carried its CUBEMET1 blob
};

/// Session metadata store: digest -> interned instance.
using MetadataStore = std::map<std::uint64_t, std::shared_ptr<const Metadata>>;

/// Decodes one Result payload the way CubeClient::query does: a shipped
/// CUBEMET1 blob is checked against the payload's metadata digest and
/// interned into `metas`, the digest is resolved there, and the CUBESEV1
/// blob becomes a borrowed severity store over `payload` (moved in, never
/// copied), its header and geometry validated — not its digest.  Throws
/// ProtocolError or another cube::Error on malformed input.
[[nodiscard]] ClientResult decode_client_result(std::string payload,
                                                MetadataStore& metas);

class CubeClient {
 public:
  /// Connects and performs the Hello handshake.  Throws IoError if the
  /// daemon is not reachable, ProtocolError on a version mismatch.
  explicit CubeClient(ClientConfig config);
  ~CubeClient();

  CubeClient(const CubeClient&) = delete;
  CubeClient& operator=(const CubeClient&) = delete;

  /// Runs one query remotely and decodes the result.  Throws BusyError
  /// when shed, RemoteError on a server-side failure, ProtocolError /
  /// IoError on a broken session.  `request_id` tags the query on the
  /// server (span annotations, slow-query log); 0 auto-assigns the next
  /// session-local id — see last_request_id().
  [[nodiscard]] ClientResult query(const std::string& text,
                                   std::uint64_t request_id = 0);

  /// Like query() but returns the raw payload without decoding the
  /// experiment (bench_server measures wire latency, not decode time).
  [[nodiscard]] ResultPayload query_raw(const std::string& text,
                                        std::uint64_t request_id = 0);

  [[nodiscard]] StatsPayload stats();

  /// Fetches the HealthOk JSON document.  Served off the compute pool:
  /// responds even when the daemon is saturated.
  [[nodiscard]] HealthPayload health();

  void ping();

  /// Asks the daemon to shut down; returns once ShutdownOk arrives.
  void shutdown_server();

  /// Repository generation the server reported at handshake.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }
  [[nodiscard]] const std::string& server_name() const noexcept {
    return server_name_;
  }

  /// The request id the most recent query()/query_raw() carried (useful
  /// for correlating with the daemon's slow-query log and trace spans).
  [[nodiscard]] std::uint64_t last_request_id() const noexcept {
    return last_request_id_;
  }

 private:
  /// Sends `request` and reads the response frame, translating Error
  /// frames into RemoteError.
  Frame round_trip(MsgType type, std::string_view payload,
                   MsgType expected);

  ClientConfig config_;
  int fd_ = -1;
  std::uint64_t generation_ = 0;
  std::string server_name_;
  /// Auto-assigned request ids: seeded per session (pid and connect time
  /// mixed) so ids from different clients against one daemon are
  /// distinguishable, then incremented per query.
  std::uint64_t next_request_id_ = 1;
  std::uint64_t last_request_id_ = 0;
  MetadataStore metas_;
};

}  // namespace cube::server

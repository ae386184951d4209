#include "server/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "obs/tracer.hpp"

namespace cube::server {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

int bind_unix_listener(const std::filesystem::path& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string spath = path.string();
  if (spath.size() >= sizeof(addr.sun_path)) {
    throw IoError("socket path too long for sockaddr_un: " + spath);
  }
  std::memcpy(addr.sun_path, spath.c_str(), spath.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  // The daemon owns its socket path; a leftover file from a previous run
  // (crash, unclean container stop) would otherwise block the bind.
  ::unlink(spath.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("bind " + spath);
  }
  if (::listen(fd, 64) != 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(spath.c_str());
    errno = saved;
    throw_errno("listen " + spath);
  }
  return fd;
}

void send_error_best_effort(int fd, const std::string& category,
                            const std::string& message) {
  try {
    (void)write_frame(fd, MsgType::Error,
                      encode_error(ErrorPayload{category, message}));
  } catch (const Error&) {
    // The peer is gone; nothing left to tell it.
  }
}

}  // namespace

CubedServer::CubedServer(AnalysisService& service, ServerConfig config)
    : service_(service), config_(std::move(config)) {}

CubedServer::~CubedServer() { stop(); }

void CubedServer::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return;
  ::signal(SIGPIPE, SIG_IGN);
  listen_fd_ = bind_unix_listener(config_.socket_path);
  started_ = true;
  acceptor_ = std::thread([this] { accept_loop(); });
  if (config_.refresh_interval_ms > 0) {
    housekeeper_ = std::thread([this] { housekeeping_loop(); });
  }
}

void CubedServer::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_ || stopped_; });
}

void CubedServer::request_shutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  shutdown_requested_ = true;
  shutdown_cv_.notify_all();
}

void CubedServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || stopped_) return;
    stopped_ = true;
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
  }
  stopping_.store(true, std::memory_order_release);
  // Unblock the acceptor (shutdown makes accept() fail immediately), then
  // join it before closing or clearing the fd it reads.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (housekeeper_.joinable()) housekeeper_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& session : sessions_) ::shutdown(session->fd, SHUT_RDWR);
  }
  for (auto& session : sessions_) {
    if (session->thread.joinable()) session->thread.join();
    ::close(session->fd);
  }
  sessions_.clear();
  ::unlink(config_.socket_path.c_str());
}

void CubedServer::reap_finished_sessions() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void CubedServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by stop()
    }
    reap_finished_sessions();
    accepted_.fetch_add(1, std::memory_order_relaxed);
    auto session = std::make_unique<Session>();
    session->fd = fd;
    Session& ref = *session;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      sessions_.push_back(std::move(session));
    }
    ref.thread = std::thread([this, &ref] { session_loop(ref); });
  }
}

void CubedServer::housekeeping_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopped_ && !shutdown_requested_) {
    shutdown_cv_.wait_for(
        lock, std::chrono::milliseconds(config_.refresh_interval_ms));
    if (stopped_ || shutdown_requested_) break;
    lock.unlock();
    try {
      service_.housekeeping_tick();
    } catch (const Error&) {
      // A torn read against a concurrent writer; the next tick retries.
    }
    lock.lock();
  }
}

void CubedServer::session_loop(Session& session) {
  OBS_SPAN("server.session");
  const int fd = session.fd;
  // Signals end-of-session to the peer immediately.  The fd itself stays
  // open until this thread is joined (reap or stop), so shutdown() here
  // never races a close.
  const auto finish = [&] {
    ::shutdown(fd, SHUT_RDWR);
    session.done.store(true, std::memory_order_release);
  };
  /// Metadata digests this session has already received a blob for.
  std::set<std::uint64_t> sent_metas;
  try {
    // Handshake: the first frame must be Hello with a matching version.
    std::optional<Frame> first = read_frame(fd, config_.max_payload);
    if (!first) {
      finish();
      return;
    }
    if (first->type != MsgType::Hello) {
      throw ProtocolError(std::string("expected Hello, got ") +
                          msg_type_name(first->type));
    }
    const HelloPayload hello = decode_hello(first->payload);
    if (hello.version != kProtocolVersion) {
      throw ProtocolError("protocol version " + std::to_string(hello.version) +
                          " not supported (server speaks " +
                          std::to_string(kProtocolVersion) + ")");
    }
    HelloOkPayload ok;
    ok.server = config_.name;
    ok.generation = service_.generation();
    (void)write_frame(fd, MsgType::HelloOk, encode_hello_ok(ok));

    while (auto frame = read_frame(fd, config_.max_payload)) {
      switch (frame->type) {
        case MsgType::Query: {
          const QueryPayload query = decode_query(frame->payload);
          const QueryOutcome outcome =
              service_.handle_query(query.text, query.request_id);
          switch (outcome.status) {
            case QueryOutcome::Status::Ok: {
              const CachedResult& cached = *outcome.result;
              const bool ship_meta =
                  sent_metas.insert(cached.meta_digest).second;
              (void)write_result_frame(
                  fd, cached.payload(outcome.served, outcome.server_ms,
                                     ship_meta));
              break;
            }
            case QueryOutcome::Status::Busy:
              (void)write_frame(fd, MsgType::Busy, encode_busy(outcome.busy));
              break;
            case QueryOutcome::Status::Error:
              (void)write_frame(fd, MsgType::Error,
                                encode_error(outcome.error));
              break;
          }
          break;
        }
        case MsgType::Ping:
          (void)write_frame(fd, MsgType::Pong, {});
          break;
        case MsgType::Stats:
          (void)write_frame(fd, MsgType::StatsOk,
                            encode_stats(service_.stats()));
          break;
        case MsgType::Health:
          // Answered on the session thread: health must respond even when
          // the compute pool is saturated.
          (void)write_frame(
              fd, MsgType::HealthOk,
              encode_health(HealthPayload{service_.health_json()}));
          break;
        case MsgType::Shutdown:
          if (!config_.allow_shutdown) {
            (void)write_frame(
                fd, MsgType::Error,
                encode_error(ErrorPayload{
                    "protocol", "shutdown is disabled on this server"}));
            break;
          }
          (void)write_frame(fd, MsgType::ShutdownOk, {});
          request_shutdown();
          finish();
          return;
        default:
          // A server-to-client type (or repeated Hello) from the peer is
          // a protocol violation.
          throw ProtocolError(std::string("unexpected ") +
                              msg_type_name(frame->type) +
                              " frame from a client");
      }
    }
  } catch (const ProtocolError& e) {
    send_error_best_effort(fd, "protocol", e.what());
  } catch (const IoError&) {
    // The peer disconnected mid-frame or mid-response; nothing to answer.
  } catch (const std::exception& e) {
    send_error_best_effort(fd, "internal", e.what());
  }
  finish();
}

}  // namespace cube::server

// End-to-end daemon tests over a real unix-domain socket: results are
// bit-identical to a direct engine run, the shared cache spans sessions,
// malformed and abruptly-closed connections never take the server down,
// and shutdown is clean.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/posix_io.hpp"
#include "io/cube_format.hpp"
#include "io/repository.hpp"
#include "query/engine.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "testutil.hpp"

namespace {

using cube::Experiment;
using cube::ExperimentRepository;
using cube::StorageKind;
using cube::write_full;
using namespace cube::server;
using cube::testing::make_small;

/// Raw socket for driving the protocol by hand (hostile-client tests).
struct RawConn {
  int fd = -1;
  explicit RawConn(const std::filesystem::path& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.string().size() + 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      throw std::runtime_error("raw connect failed");
    }
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  void send(const std::string& bytes) { write_full(fd, bytes.data(), bytes.size()); }
};

class ServerE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("cube_e2e_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
    std::filesystem::remove_all(dir_);
    repo_ = std::make_unique<ExperimentRepository>(dir_ / "repo");
    a_ = store_salted("run-a", 0.5);
    b_ = store_salted("run-b", 1.5);

    ServiceConfig service_config;
    service_config.threads = 2;
    service_ = std::make_unique<AnalysisService>(*repo_, service_config);

    ServerConfig server_config;
    server_config.socket_path = dir_ / "cubed.sock";
    server_config.refresh_interval_ms = 50;
    server_ = std::make_unique<CubedServer>(*service_, server_config);
    server_->start();
    socket_ = server_config.socket_path;
  }
  void TearDown() override {
    server_->stop();
    server_.reset();
    service_.reset();
    repo_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string store_salted(const std::string& name, double salt) {
    Experiment e = make_small(StorageKind::Dense, name);
    for (std::size_t m = 0; m < e.metadata().num_metrics(); ++m) {
      for (std::size_t c = 0; c < e.metadata().num_cnodes(); ++c) {
        for (std::size_t t = 0; t < e.metadata().num_threads(); ++t) {
          e.severity().add(m, c, t, salt);
        }
      }
    }
    return repo_->store(e);
  }

  ClientConfig client_config() const {
    ClientConfig config;
    config.socket_path = socket_;
    return config;
  }

  std::filesystem::path dir_;
  std::filesystem::path socket_;
  std::unique_ptr<ExperimentRepository> repo_;
  std::unique_ptr<AnalysisService> service_;
  std::unique_ptr<CubedServer> server_;
  std::string a_, b_;
};

TEST_F(ServerE2eTest, RemoteResultIsBitIdenticalToDirectEngineRun) {
  const std::string query = "mean(" + a_ + ", " + b_ + ")";

  CubeClient client(client_config());
  const ClientResult remote = client.query(query);
  EXPECT_EQ(remote.served, Served::Computed);

  // The same query straight through the engine over a second repository
  // object (a separate process's view of the same directory).
  ExperimentRepository direct_repo(dir_ / "repo");
  cube::query::QueryOptions options;
  options.threads = 1;
  cube::query::QueryEngine engine(direct_repo, options);
  const cube::query::QueryResult direct = engine.run(query);

  EXPECT_EQ(remote.canonical, direct.canonical);
  std::ostringstream remote_xml, direct_xml;
  cube::write_cube_xml(remote.experiment, remote_xml);
  cube::write_cube_xml(direct.experiment, direct_xml);
  EXPECT_EQ(remote_xml.str(), direct_xml.str());
}

TEST_F(ServerE2eTest, SharedCacheSpansSessions) {
  const std::string query = "max(" + a_ + ", " + b_ + ")";
  CubeClient first(client_config());
  EXPECT_EQ(first.query(query).served, Served::Computed);

  CubeClient second(client_config());
  const ClientResult hit = second.query(query);
  EXPECT_EQ(hit.served, Served::CacheHit);
  // A fresh session still gets the metadata blob (per-session dedup).
  EXPECT_TRUE(hit.meta_shipped);
}

TEST_F(ServerE2eTest, MetadataShipsOncePerSession) {
  CubeClient client(client_config());
  const ClientResult one = client.query("mean(" + a_ + ", " + b_ + ")");
  EXPECT_TRUE(one.meta_shipped);
  // A DIFFERENT query over the same metadata: the session already holds
  // the blob, so the result travels without it.
  const ClientResult two = client.query("min(" + a_ + ", " + b_ + ")");
  EXPECT_FALSE(two.meta_shipped);
  EXPECT_LT(two.wire_bytes, one.wire_bytes);
  // Both decode against the SAME interned metadata instance.
  EXPECT_EQ(&one.experiment.metadata(), &two.experiment.metadata());
}

TEST_F(ServerE2eTest, ConcurrentClientsAllGetCorrectResults) {
  const std::string query = "mean(" + a_ + ", " + b_ + ")";
  constexpr int kClients = 6;
  std::vector<std::string> canonicals(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      CubeClient client(client_config());
      canonicals[i] = client.query(query).canonical;
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 1; i < kClients; ++i) EXPECT_EQ(canonicals[i], canonicals[0]);
}

TEST_F(ServerE2eTest, RemoteErrorsCarryCategories) {
  CubeClient client(client_config());
  try {
    (void)client.query("mean(");
    FAIL() << "parse error expected";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.payload().category, "parse");
  }
  // The session survives a query error.
  client.ping();
  EXPECT_EQ(client.query("mean(" + a_ + ", " + b_ + ")").served,
            Served::Computed);
}

TEST_F(ServerE2eTest, DeeplyNestedQueryGetsParseErrorAndSessionSurvives) {
  // 100 000 nested applications (~600 KB, far under the payload cap): an
  // unbounded recursive-descent parse overflows the session thread's stack.
  constexpr std::size_t kLevels = 100000;
  std::string deep;
  for (std::size_t i = 0; i < kLevels; ++i) deep += "mean(";
  deep += a_;
  deep.append(kLevels, ')');

  CubeClient client(client_config());
  try {
    (void)client.query(deep);
    FAIL() << "parse error expected";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.payload().category, "parse");
  }
  const std::string query = "mean(" + a_ + ", " + b_ + ")";
  const ClientResult next = client.query(query);
  ExperimentRepository direct_repo(dir_ / "repo");
  cube::query::QueryEngine engine(direct_repo, {.threads = 1});
  std::ostringstream remote_xml, direct_xml;
  cube::write_cube_xml(next.experiment, remote_xml);
  cube::write_cube_xml(engine.run(query).experiment, direct_xml);
  EXPECT_EQ(remote_xml.str(), direct_xml.str());
}

TEST_F(ServerE2eTest, GarbageMagicGetsProtocolErrorNotACrash) {
  {
    RawConn conn(socket_);
    conn.send(std::string(64, 'Z'));
    // The server answers with a structured protocol Error frame...
    const auto reply = read_frame(conn.fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, MsgType::Error);
    EXPECT_EQ(decode_error(reply->payload).category, "protocol");
    // ...then closes the session.
    EXPECT_FALSE(read_frame(conn.fd).has_value());
  }
  // Other sessions are unaffected.
  CubeClient client(client_config());
  client.ping();
}

TEST_F(ServerE2eTest, TruncatedFrameGetsProtocolError) {
  RawConn conn(socket_);
  // A Hello header claiming 500 payload bytes, then only 5, then EOF.
  std::string h;
  auto le32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) h.push_back(static_cast<char>(v >> (8 * i)));
  };
  le32(kFrameMagic);
  le32(static_cast<std::uint32_t>(MsgType::Hello));
  h.append(8, '\0');
  h[8] = static_cast<char>(500 % 256);
  h[9] = static_cast<char>(500 / 256);
  conn.send(h);
  conn.send("5byte");
  ::shutdown(conn.fd, SHUT_WR);

  const auto reply = read_frame(conn.fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::Error);
  EXPECT_EQ(decode_error(reply->payload).category, "protocol");
}

TEST_F(ServerE2eTest, OversizedLengthPrefixIsRejectedStructurally) {
  RawConn conn(socket_);
  std::string h;
  auto le32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) h.push_back(static_cast<char>(v >> (8 * i)));
  };
  le32(kFrameMagic);
  le32(static_cast<std::uint32_t>(MsgType::Query));
  for (int i = 0; i < 7; ++i) h.push_back('\xff');
  h.push_back('\x7f');  // payload_len just under 2^63
  conn.send(h);

  const auto reply = read_frame(conn.fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::Error);
  EXPECT_EQ(decode_error(reply->payload).category, "protocol");
}

TEST_F(ServerE2eTest, AbruptDisconnectMidQueryDoesNotHarmTheServer) {
  for (int round = 0; round < 3; ++round) {
    RawConn conn(socket_);
    HelloPayload hello;
    hello.client = "vanishing";
    write_frame(conn.fd, MsgType::Hello, encode_hello(hello));
    QueryPayload query;
    query.text = "mean(" + a_ + ", " + b_ + ")";
    write_frame(conn.fd, MsgType::Query, encode_query(query));
    // Vanish without reading the response: the server's write hits a
    // closed peer (EPIPE / reset), which must only end that session.
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  CubeClient client(client_config());
  client.ping();
  EXPECT_EQ(client.query("min(" + a_ + ", " + b_ + ")").served,
            Served::Computed);
}

TEST_F(ServerE2eTest, ClientFramesOfServerTypesAreRejected) {
  RawConn conn(socket_);
  HelloPayload hello;
  write_frame(conn.fd, MsgType::Hello, encode_hello(hello));
  const auto ok = read_frame(conn.fd);
  ASSERT_TRUE(ok.has_value());
  ASSERT_EQ(ok->type, MsgType::HelloOk);

  write_frame(conn.fd, MsgType::Result, encode_result(ResultPayload{}));
  const auto reply = read_frame(conn.fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::Error);
  EXPECT_EQ(decode_error(reply->payload).category, "protocol");
}

TEST_F(ServerE2eTest, HousekeepingPicksUpExternallyStoredExperiments) {
  // Another "process" appends to the repository after the daemon started.
  ExperimentRepository other(dir_ / "repo");
  const std::string late = other.store(make_small(StorageKind::Dense, "late"));

  CubeClient client(client_config());
  // The 50 ms housekeeping refresh makes the new entry queryable without
  // a daemon restart; poll briefly to avoid timing flakiness.
  bool served = false;
  for (int attempt = 0; attempt < 100 && !served; ++attempt) {
    try {
      (void)client.query("max(" + late + ", " + late + ")");
      served = true;
    } catch (const RemoteError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(served);
}

TEST_F(ServerE2eTest, TelemetryTravelsOverTheWire) {
  CubeClient client(client_config());
  const ClientResult result = client.query("mean(" + a_ + ", " + b_ + ")");
  EXPECT_NE(client.last_request_id(), 0u);

  // Health answers on the session thread with a well-formed document.
  const HealthPayload health = client.health();
  EXPECT_NE(health.json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.json.find("\"uptime_s\":"), std::string::npos);

  // Stats ships the telemetry JSON and the slow-query log; the query this
  // session just ran appears with its auto-assigned request id.
  const StatsPayload stats = client.stats();
  EXPECT_NE(stats.json.find("\"server\":"), std::string::npos);
  EXPECT_NE(stats.json.find("\"slow_queries\":["), std::string::npos);
  bool found = false;
  for (const auto& slow : stats.slow) {
    if (slow.request_id == client.last_request_id()) {
      found = true;
      EXPECT_EQ(slow.outcome, "computed");
      EXPECT_GT(slow.server_ms, 0.0);
    }
  }
  EXPECT_TRUE(found) << "the served query must appear in the slow log";
  (void)result;

  // Quantiles arrive in the per-sample records.
  for (const auto& s : stats.samples) {
    if (s.name == "server.service_time") {
      EXPECT_GT(s.count, 0u);
      EXPECT_GE(s.p99, s.p50);
    }
  }
}

TEST_F(ServerE2eTest, StatsAndCleanShutdownOverTheWire) {
  CubeClient client(client_config());
  (void)client.query("mean(" + a_ + ", " + b_ + ")");
  const StatsPayload stats = client.stats();
  EXPECT_FALSE(stats.samples.empty());

  client.shutdown_server();
  server_->wait();  // the Shutdown frame unblocks wait()
  server_->stop();
  // The socket is gone: new connections fail cleanly.
  EXPECT_THROW(CubeClient{client_config()}, cube::IoError);
}

}  // namespace

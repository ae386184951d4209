// bench_server: replays synthetic client sessions against an in-process
// cubed server over a real unix-domain socket and reports the latency
// distribution per serving mode, coalescing behaviour, backpressure under
// overload, and saturated throughput (EXPERIMENTS.md, experiment A13).
//
// Phases:
//   A  cold     every distinct query once — full plan + load + compute
//   B  warm     the same queries replayed — shared-cache hits
//   C  coalesce one fresh query from many simultaneous sessions
//   D  overload distinct cold queries far beyond the inflight ceiling
//   E  mixed    N sessions of interleaved hot/cold traffic (throughput)
//
// Latency is reported two ways: the client round trip (includes the wire
// transfer and client-side decode, a constant the cache cannot remove)
// and the server-side service time the daemon stamps into each response
// (the work the shared cache does remove).  Exits nonzero if a serving
// invariant fails: a cached hit must be >= 10x faster than a cold compute
// at the median server-side, concurrent identical queries must plan and
// compute exactly once, and overload must shed with BUSY rather than
// queueing without bound.
#include <atomic>
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "io/repository.hpp"
#include "obs/metrics.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/service.hpp"

namespace {

using namespace cube::server;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

std::uint64_t computes_counter() {
  return cube::obs::MetricsRegistry::global().counter("server.computes")
      .value();
}

long rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

struct Options {
  int sessions = 2000;   ///< phase-E session count
  int clients = 16;      ///< concurrent client threads
  int experiments = 12;  ///< stored synthetic experiments
  bool quick = false;    ///< ctest-sized run
};

int run(const Options& opt) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("cube_bench_server_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const fs::path socket_path = dir / "cubed.sock";

  cube::ExperimentRepository repo(dir / "repo");
  std::vector<std::string> ids;
  for (int i = 0; i < opt.experiments; ++i) {
    cube::bench::Shape shape;
    shape.prefix = "run";  // shared prefix => shared metadata shape
    shape.seed = 1000 + static_cast<std::uint64_t>(i);
    cube::Experiment e = cube::bench::make_experiment(shape);
    e.set_name("run" + std::to_string(i));
    ids.push_back(repo.store(e));
  }

  ServiceConfig service_config;
  service_config.threads = 4;
  service_config.store_derived = false;  // measure the server, not the disk
  AnalysisService service(repo, service_config);

  ServerConfig server_config;
  server_config.socket_path = socket_path;
  CubedServer server(service, server_config);
  server.start();

  ClientConfig client_config;
  client_config.socket_path = socket_path;

  // The hot set: one query per operator over adjacent pairs.
  const char* ops[] = {"mean", "min", "max", "diff", "merge"};
  std::vector<std::string> hot;
  for (const char* op : ops) {
    for (std::size_t i = 0; i + 1 < ids.size(); i += 2) {
      hot.push_back(std::string(op) + "(" + ids[i] + ", " + ids[i + 1] +
                    ")");
    }
  }

  // ---- Phase A: cold ---------------------------------------------------
  std::vector<double> cold_rt, cold_srv;
  {
    CubeClient client(client_config);
    for (const std::string& q : hot) {
      const double t0 = now_ms();
      const ClientResult r = client.query(q);
      cold_rt.push_back(now_ms() - t0);
      cold_srv.push_back(r.server_ms);
      if (r.served != Served::Computed) {
        std::fprintf(stderr, "FAIL: cold query served as %d\n",
                     static_cast<int>(r.served));
        return 1;
      }
    }
  }

  // ---- Phase B: warm ---------------------------------------------------
  const int warm_rounds = opt.quick ? 4 : 40;
  std::vector<double> hit_rt, hit_srv;
  std::mutex hit_mutex;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < opt.clients; ++c) {
      threads.emplace_back([&, c] {
        CubeClient client(client_config);
        std::vector<double> rt, srv;
        for (int round = 0; round < warm_rounds; ++round) {
          const std::string& q = hot[(c + round) % hot.size()];
          const double t0 = now_ms();
          const ClientResult r = client.query(q);
          rt.push_back(now_ms() - t0);
          srv.push_back(r.server_ms);
          if (r.served == Served::Computed) std::abort();  // must be warm
        }
        std::lock_guard<std::mutex> lock(hit_mutex);
        hit_rt.insert(hit_rt.end(), rt.begin(), rt.end());
        hit_srv.insert(hit_srv.end(), srv.begin(), srv.end());
      });
    }
    for (auto& t : threads) t.join();
  }

  // ---- Phase C: coalescing ---------------------------------------------
  const std::string fresh =
      "mean(" + ids[0] + ", " + ids[1] + ", " + ids[2] + ")";
  const std::uint64_t computes_before = computes_counter();
  std::atomic<int> served_computed{0};
  {
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int c = 0; c < opt.clients; ++c) {
      threads.emplace_back([&] {
        CubeClient client(client_config);
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        if (client.query(fresh).served == Served::Computed) {
          served_computed.fetch_add(1);
        }
      });
    }
    while (ready.load() < opt.clients) std::this_thread::yield();
    go.store(true);
    for (auto& t : threads) t.join();
  }
  const std::uint64_t coalesce_computes = computes_counter() - computes_before;

  // ---- Phase D: overload -----------------------------------------------
  // Far more simultaneous cold queries than the inflight ceiling
  // (2 x threads = 8): the surplus must shed with a structured BUSY.
  std::atomic<int> busy{0};
  std::atomic<int> overload_ok{0};
  {
    std::vector<std::thread> threads;
    const int flood = opt.quick ? 16 : 48;
    for (int c = 0; c < flood; ++c) {
      threads.emplace_back([&, c] {
        CubeClient client(client_config);
        // Distinct per-thread query: min over a rotated triple.
        const std::string q = "min(" + ids[c % ids.size()] + ", " +
                              ids[(c + 1) % ids.size()] + ", " +
                              ids[(c + 2) % ids.size()] + ")";
        try {
          (void)client.query(q);
          overload_ok.fetch_add(1);
        } catch (const BusyError&) {
          busy.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  // ---- Phase E: mixed sessions -----------------------------------------
  // Each session connects, issues three hot queries and one from a wider
  // pool (some still cold), and disconnects — the shape of an interactive
  // analysis fleet.
  std::vector<std::string> pool;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = 0; j < ids.size(); ++j) {
      if (i != j) {
        pool.push_back("diff(" + ids[i] + ", " + ids[j] + ")");
      }
    }
  }
  std::atomic<int> next_session{0};
  std::atomic<int> mixed_busy{0};
  std::vector<double> mixed_ms;
  std::mutex mixed_mutex;
  const double mixed_t0 = now_ms();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < opt.clients; ++c) {
      threads.emplace_back([&] {
        std::vector<double> local;
        for (int s = next_session.fetch_add(1); s < opt.sessions;
             s = next_session.fetch_add(1)) {
          CubeClient client(client_config);
          for (int q = 0; q < 4; ++q) {
            const std::string& text =
                q < 3 ? hot[(static_cast<std::size_t>(s) + q) % hot.size()]
                      : pool[static_cast<std::size_t>(s) % pool.size()];
            const double t0 = now_ms();
            try {
              (void)client.query(text);
              local.push_back(now_ms() - t0);
            } catch (const BusyError&) {
              mixed_busy.fetch_add(1);
            }
          }
        }
        std::lock_guard<std::mutex> lock(mixed_mutex);
        mixed_ms.insert(mixed_ms.end(), local.begin(), local.end());
      });
    }
    for (auto& t : threads) t.join();
  }
  const double mixed_wall_s = (now_ms() - mixed_t0) / 1000.0;

  // ---- Phase T: telemetry overhead -------------------------------------
  // The same warm replay twice — alone, then with a concurrent scraper
  // hammering Stats and Health over its own session — to price what a
  // monitoring agent costs the query path.  Stats snapshots the registry
  // and the slow-query log under their mutexes; the full run asserts the
  // scrape cannot shift the warm median materially (EXPERIMENTS.md A16).
  std::atomic<int> replay_failures{0};
  auto warm_replay = [&](int rounds) {
    std::vector<double> rt;
    std::mutex rt_mutex;
    std::vector<std::thread> threads;
    for (int c = 0; c < opt.clients; ++c) {
      threads.emplace_back([&, c] {
        CubeClient client(client_config);
        std::vector<double> local;
        for (int round = 0; round < rounds; ++round) {
          const std::string& q = hot[(c + round) % hot.size()];
          const double t0 = now_ms();
          try {
            (void)client.query(q);
            local.push_back(now_ms() - t0);
          } catch (const std::exception&) {
            replay_failures.fetch_add(1);
          }
        }
        std::lock_guard<std::mutex> lock(rt_mutex);
        rt.insert(rt.end(), local.begin(), local.end());
      });
    }
    for (auto& t : threads) t.join();
    return rt;
  };
  const int scrape_rounds = opt.quick ? 8 : 64;
  const std::vector<double> quiet_rt = warm_replay(scrape_rounds);
  std::atomic<bool> scrape_stop{false};
  std::atomic<int> scrapes{0};
  std::atomic<int> scrape_failures{0};
  std::thread scraper([&] {
    CubeClient monitor(client_config);
    while (!scrape_stop.load(std::memory_order_relaxed)) {
      try {
        (void)monitor.stats();
        (void)monitor.health();
        scrapes.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception&) {
        scrape_failures.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  const std::vector<double> scraped_rt = warm_replay(scrape_rounds);
  scrape_stop.store(true, std::memory_order_relaxed);
  scraper.join();
  server.stop();

  // ---- Phase F: over-budget flood --------------------------------------
  // A second daemon whose peak-resident budget (1 byte) no plan can meet:
  // static analysis must reject every query BEFORE it reaches the pool or
  // the result cache, so an over-budget flood costs neither compute nor
  // memory.
  std::atomic<int> budget_rejected{0};
  std::atomic<int> budget_wrong{0};
  std::uint64_t budget_computes = 0;
  std::uint64_t budget_cache_bytes = 0;
  long rss_growth_kb = 0;
  {
    ServiceConfig gated_config;
    gated_config.threads = 4;
    gated_config.store_derived = false;
    gated_config.budget_bytes = 1;
    AnalysisService gated(repo, gated_config);
    ServerConfig gated_server_config;
    gated_server_config.socket_path = dir / "cubed-budget.sock";
    CubedServer gated_server(gated, gated_server_config);
    gated_server.start();
    ClientConfig gated_client_config;
    gated_client_config.socket_path = gated_server_config.socket_path;

    const std::uint64_t computes_before_flood = computes_counter();
    const long rss_before = rss_kb();
    const int flood = opt.quick ? 64 : 256;
    std::vector<std::thread> threads;
    for (int c = 0; c < opt.clients; ++c) {
      threads.emplace_back([&, c] {
        CubeClient client(gated_client_config);
        for (int q = c; q < flood; q += opt.clients) {
          const std::string text = "max(" + ids[q % ids.size()] + ", " +
                                   ids[(q + 3) % ids.size()] + ")";
          try {
            (void)client.query(text);
            budget_wrong.fetch_add(1);
          } catch (const RemoteError& e) {
            bool over_budget = false;
            for (const auto& d : e.payload().diagnostics) {
              if (d.rule == "cost.over-budget") over_budget = true;
            }
            if (e.payload().category == "analysis" && over_budget) {
              budget_rejected.fetch_add(1);
            } else {
              budget_wrong.fetch_add(1);
            }
          } catch (const BusyError&) {
            budget_wrong.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    budget_computes = computes_counter() - computes_before_flood;
    budget_cache_bytes = gated.cache().size_bytes();
    rss_growth_kb = rss_kb() - rss_before;
    gated_server.stop();
  }
  fs::remove_all(dir);

  // ---- Report ----------------------------------------------------------
  const double cold_srv_p50 = percentile(cold_srv, 0.50);
  const double hit_srv_p50 = percentile(hit_srv, 0.50);
  const double mixed_p50 = percentile(mixed_ms, 0.50);
  const double mixed_p99 = percentile(mixed_ms, 0.99);
  const double throughput =
      static_cast<double>(mixed_ms.size()) / mixed_wall_s;

  std::printf("bench_server: %d experiments, %zu hot queries, %d client "
              "threads, %d mixed sessions\n",
              opt.experiments, hot.size(), opt.clients, opt.sessions);
  std::printf("%-22s %8s %9s %9s %11s %11s\n", "phase", "queries",
              "rt p50", "rt p99", "server p50", "server p99");
  std::printf("%-22s %8zu %8.3fms %8.3fms %10.3fms %10.3fms\n",
              "A cold (computed)", cold_rt.size(),
              percentile(cold_rt, 0.50), percentile(cold_rt, 0.99),
              cold_srv_p50, percentile(cold_srv, 0.99));
  std::printf("%-22s %8zu %8.3fms %8.3fms %10.3fms %10.3fms\n",
              "B warm (cache hit)", hit_rt.size(),
              percentile(hit_rt, 0.50), percentile(hit_rt, 0.99),
              hit_srv_p50, percentile(hit_srv, 0.99));
  std::printf("%-22s %8zu %8.3fms %8.3fms\n", "E mixed sessions",
              mixed_ms.size(), mixed_p50, mixed_p99);
  std::printf("cold/hit server-side p50 ratio: %.0fx\n",
              hit_srv_p50 > 0 ? cold_srv_p50 / hit_srv_p50 : 0.0);
  std::printf("coalescing: %d concurrent identical queries -> %llu "
              "computation(s), %d served Computed\n",
              opt.clients,
              static_cast<unsigned long long>(coalesce_computes),
              served_computed.load());
  std::printf("overload: %d ok, %d shed BUSY (inflight ceiling %zu)\n",
              overload_ok.load(), busy.load(),
              service.config().max_inflight);
  std::printf("mixed throughput: %.0f queries/s over %.2f s (%d BUSY)\n",
              throughput, mixed_wall_s, mixed_busy.load());
  const double quiet_p50 = percentile(quiet_rt, 0.50);
  const double scraped_p50 = percentile(scraped_rt, 0.50);
  std::printf("telemetry: warm rt p50 %.3f ms alone, %.3f ms under %d "
              "Stats+Health scrapes (%+.1f%%)\n",
              quiet_p50, scraped_p50, scrapes.load(),
              quiet_p50 > 0 ? 100.0 * (scraped_p50 / quiet_p50 - 1.0)
                            : 0.0);
  std::printf("over-budget flood: %d rejected pre-compute, %llu "
              "computation(s), result cache %llu bytes, rss growth %ld "
              "KiB\n",
              budget_rejected.load(),
              static_cast<unsigned long long>(budget_computes),
              static_cast<unsigned long long>(budget_cache_bytes),
              rss_growth_kb);

  // ---- Invariants ------------------------------------------------------
  int rc = 0;
  if (hit_srv_p50 <= 0 || cold_srv_p50 / hit_srv_p50 < 10.0) {
    std::fprintf(stderr,
                 "FAIL: cached-hit server-side p50 not >= 10x faster "
                 "than cold (%.3f ms vs %.3f ms)\n",
                 hit_srv_p50, cold_srv_p50);
    rc = 1;
  }
  if (coalesce_computes != 1 || served_computed.load() != 1) {
    std::fprintf(stderr,
                 "FAIL: expected exactly one computation for coalesced "
                 "queries, saw %llu (%d Computed)\n",
                 static_cast<unsigned long long>(coalesce_computes),
                 served_computed.load());
    rc = 1;
  }
  if (busy.load() == 0) {
    std::fprintf(stderr, "FAIL: overload phase never shed a BUSY\n");
    rc = 1;
  }
  if (budget_wrong.load() != 0 || budget_computes != 0 ||
      budget_cache_bytes != 0) {
    std::fprintf(stderr,
                 "FAIL: over-budget flood leaked past admission (%d "
                 "non-rejections, %llu computation(s), %llu cached "
                 "bytes)\n",
                 budget_wrong.load(),
                 static_cast<unsigned long long>(budget_computes),
                 static_cast<unsigned long long>(budget_cache_bytes));
    rc = 1;
  }
  // Telemetry: the scraper must have run, every Stats/Health request must
  // have been answered and no warm query may fail under it.  Only the
  // full run also gates the scraped warm median, at 2% of the quiet one:
  // on --quick's 8 rounds per client the shift read between -52% and
  // +120% on unchanged code, wider than any bound that would still catch
  // a regression, so quick runs only print it.
  if (scrapes.load() == 0 || scrape_failures.load() != 0 ||
      replay_failures.load() != 0) {
    std::fprintf(stderr,
                 "FAIL: telemetry phase: %d scrapes answered, %d "
                 "unanswered, %d failed warm queries\n",
                 scrapes.load(), scrape_failures.load(),
                 replay_failures.load());
    rc = 1;
  }
  if (!opt.quick && quiet_p50 > 0 && scraped_p50 / quiet_p50 > 1.02) {
    std::fprintf(stderr,
                 "FAIL: telemetry scrape shifted the warm p50 from %.3f "
                 "to %.3f ms (tolerance 2%%, %d scrapes)\n",
                 quiet_p50, scraped_p50, scrapes.load());
    rc = 1;
  }
  if (rss_growth_kb > 16 * 1024) {
    std::fprintf(stderr,
                 "FAIL: over-budget flood grew RSS by %ld KiB — "
                 "rejections must not allocate\n",
                 rss_growth_kb);
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sessions" && i + 1 < argc) {
      opt.sessions = std::atoi(argv[++i]);
    } else if (arg == "--clients" && i + 1 < argc) {
      opt.clients = std::atoi(argv[++i]);
    } else if (arg == "--quick") {
      opt.quick = true;
      opt.sessions = 200;
      opt.clients = 8;
    } else {
      std::fprintf(stderr,
                   "usage: bench_server [--sessions N] [--clients N] "
                   "[--quick]\n");
      return 2;
    }
  }
  return run(opt);
}

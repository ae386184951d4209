#include "driver.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "algebra/operators.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "io/binary_format.hpp"
#include "io/repository.hpp"
#include "layers.hpp"
#include "lint/diagnostics.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "query/analyze.hpp"
#include "query/engine.hpp"
#include "query/query_expr.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using cube::server::AnalysisService;
using cube::server::ClientConfig;
using cube::server::ClientResult;
using cube::server::CubeClient;
using cube::server::CubedServer;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5).value; }

/// A /proc/self/status memory field ("VmRSS:", "VmHWM:") in MiB.
double status_mib(std::string_view field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::atof(line.c_str() + field.size()) / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code fec;
    if (it->is_regular_file(fec)) total += it->file_size(fec);
  }
  return total;
}

/// Reads one instrument from a registry snapshot: a counter's value, or a
/// histogram's p50 when `p50` is set.  Absent instruments read 0.
double sample_of(const std::vector<cube::obs::MetricSample>& samples,
                 std::string_view name, bool p50 = false) {
  for (const auto& s : samples) {
    if (s.name == name) return p50 ? s.p50 : s.value;
  }
  return 0.0;
}

constexpr const char* kKernelCounters[] = {
    cube::kernel_counters::kIdentityDenseCells,
    cube::kernel_counters::kRemapDenseCells,
    cube::kernel_counters::kIdentitySparseNnz,
    cube::kernel_counters::kRemapSparseNnz};

std::uint64_t kernel_cells(const std::vector<cube::obs::MetricSample>& s) {
  double cells = 0.0;
  for (const char* name : kKernelCounters) cells += sample_of(s, name);
  return static_cast<std::uint64_t>(cells);
}

// --- in-process reference runs -----------------------------------------------

/// The serialized form outputs are compared in.  A daemon that persists
/// derived results stamps them with its cache bookkeeping
/// ("cube::cache-*" attributes, query/planner.hpp); those say where the
/// result is cached, not what it is, so they are left out.
std::string canonical_bytes(const cube::Experiment& e) {
  const auto& attrs = e.attributes();
  const bool stamped = std::any_of(attrs.begin(), attrs.end(), [](auto& kv) {
    return kv.first.rfind("cube::cache-", 0) == 0;
  });
  if (!stamped) return cube::to_cube_binary(e);
  cube::Experiment copy(e.metadata_ptr(), e.severity().clone());
  for (const auto& [k, v] : attrs) {
    if (k.rfind("cube::cache-", 0) != 0) copy.set_attribute(k, v);
  }
  return cube::to_cube_binary(copy);
}

/// One query run in process, decomposed into the query layer's public
/// steps, each timed and spanned from here.
struct RefRun {
  std::string bytes;  ///< canonical_bytes of the result
  double parse_ms = 0.0, plan_ms = 0.0, analyze_ms = 0.0, exec_ms = 0.0;
  double load_ms = 0.0, eval_ms = 0.0;
  std::uint64_t operands = 0, bytes_loaded = 0;
  std::uint64_t id_dense = 0, remap_dense = 0, id_sparse = 0, remap_sparse = 0;
  std::uint64_t tiles = 0;
  bool exact = false;       ///< analyzer claimed an exact prediction
  bool mispredict = false;  ///< ... and the kernel counters disagree

  [[nodiscard]] std::uint64_t cells() const {
    return id_dense + remap_dense + id_sparse + remap_sparse;
  }
};

RefRun reference_run(cube::query::QueryEngine& engine,
                     const cube::ExperimentRepository& repo,
                     const std::string& text) {
  using namespace cube::query;
  RefRun r;
  auto t = Clock::now();
  std::unique_ptr<QueryExpr> expr;
  {
    cube::obs::Span span("bench.query.parse");
    expr = parse_query(text);
  }
  r.parse_ms = ms_since(t);
  t = Clock::now();
  const QueryPlan plan = [&] {
    cube::obs::Span span("bench.query.plan");
    return engine.plan(*expr);
  }();
  r.plan_ms = ms_since(t);
  AnalyzeOptions ao;
  ao.use_cache = engine.options().use_cache;
  ao.run_plan_lint = false;
  ao.operators = engine.options().operators;
  cube::lint::DiagnosticSink sink;
  t = Clock::now();
  const PlanAnalysis analysis = [&] {
    cube::obs::Span span("bench.query.analyze");
    return analyze_plan(plan, repo, sink, ao);
  }();
  r.analyze_ms = ms_since(t);
  t = Clock::now();
  const QueryResult result = [&] {
    cube::obs::Span span("bench.query.exec");
    return engine.run_plan(plan);
  }();
  r.exec_ms = ms_since(t);
  const QueryStats& st = result.stats;
  r.load_ms = st.load_ms;
  r.eval_ms = st.eval_ms;
  r.operands = st.operands_loaded;
  r.bytes_loaded = st.bytes_loaded;
  r.id_dense = st.kernel_identity_dense_cells;
  r.remap_dense = st.kernel_remap_dense_cells;
  r.id_sparse = st.kernel_identity_sparse_nnz;
  r.remap_sparse = st.kernel_remap_sparse_nnz;
  r.tiles = st.kernel_batch_tiles;
  if (analysis.exact && analysis.compatible) {
    r.exact = true;
    r.mispredict = analysis.cold.cells_traversed != r.cells() ||
                   analysis.cold.bytes_loaded != st.bytes_loaded ||
                   analysis.cold.operands_loaded != st.operands_loaded;
  }
  r.bytes = canonical_bytes(result.experiment);
  return r;
}

// --- the daemon -------------------------------------------------------------

/// Repository + service + server; members destroy in reverse order, so
/// the server stops before the service and the repository go.
struct Daemon {
  std::unique_ptr<cube::ExperimentRepository> repo;
  std::unique_ptr<AnalysisService> service;
  std::unique_ptr<CubedServer> server;
};

/// Stops the server before the service and the repository it uses go.
void shutdown(Daemon& d) {
  d.server.reset();
  d.service.reset();
  d.repo.reset();
}

struct SetupResult {
  Daemon daemon;
  double seconds = 0.0;
};

// --- sessions ---------------------------------------------------------------

struct Sample {
  double rt_ms = 0.0;
  double server_ms = 0.0;
  std::size_t wire = 0;
  bool traced = false;  ///< tracing was on for the whole round trip
};

/// One session's state and results, kept across rounds.
struct SessionResult {
  Rng rng{0};            ///< request choices
  Rng reconnect_rng{0};  ///< reconnect intervals
  std::uint64_t next_k = 0;  ///< index of the next request
  std::vector<Sample> samples;
  std::vector<double> connect_ms;
  std::vector<double> decode_ms;
  std::vector<std::string> payloads;  ///< captured Result payloads
  std::vector<RefRun> refs;
  /// Deferred checks: (text, FNV-1a of the response's canonical bytes).
  std::vector<std::pair<std::string, std::uint64_t>> deferred;
  std::uint64_t attempted = 0, busy = 0, errors = 0, mismatches = 0;
  std::uint64_t extra_requests = 0;  ///< decode probes (all cache hits)
  std::uint64_t digest = 0;
  std::vector<std::string> failures;

  void fail(std::string what) {
    if (failures.size() < 4) failures.push_back(std::move(what));
  }
};

struct Shared {
  const Options* opt = nullptr;
  ClientConfig client;
  /// Source of each session's next request.
  std::function<Request(Rng&)> next;
  /// Reconnect after a uniform 24..48 queries (hot_replay).
  bool reconnect = false;
  /// One in check_rate responses is checked against an in-process run.
  std::uint64_t check_rate = 8;
  /// Precomputed reference bytes by text (hot_replay); else run in process.
  const std::map<std::string, std::string>* references = nullptr;
  cube::query::QueryEngine* checker = nullptr;
  cube::ExperimentRepository* checker_repo = nullptr;
  /// Keep only a digest of each sampled response and run the references
  /// after the timed phase (cold_series: an in-loop reference run of a
  /// wide reduction would compete with the daemon for the cores).
  bool defer_checks = false;
};

void run_reference_check(const Shared& sh, const std::string& text,
                         const ClientResult& got, SessionResult& out) {
  const std::string bytes = canonical_bytes(got.experiment);
  if (sh.defer_checks) {
    out.deferred.emplace_back(text, cube::fnv1a(bytes));
    return;
  }
  if (sh.references) {
    const auto it = sh.references->find(text);
    if (it == sh.references->end() || it->second != bytes) {
      ++out.mismatches;
      out.fail("output mismatch: " + text);
    }
    return;
  }
  RefRun ref = reference_run(*sh.checker, *sh.checker_repo, text);
  if (ref.bytes != bytes) {
    ++out.mismatches;
    out.fail("output mismatch: " + text);
  }
  ref.bytes.clear();
  out.refs.push_back(std::move(ref));
}

/// Runs one round of a session: a fresh connection, then requests until
/// `deadline` (or, in count mode, until the session's quota is sent).
void run_session(const Shared& sh, std::size_t index,
                 Clock::time_point deadline, SessionResult& out) {
  cube::obs::set_current_thread_name("session." + std::to_string(index));
  const Options& opt = *sh.opt;
  Rng& rng = out.rng;
  Rng& reconnect_rng = out.reconnect_rng;
  std::unique_ptr<CubeClient> client;
  std::size_t until_reconnect = 0;
  for (std::uint64_t& k = out.next_k;; ++k) {
    if (opt.queries_per_session ? k >= opt.queries_per_session
                                : Clock::now() >= deadline) {
      break;
    }
    if (!client || (sh.reconnect && until_reconnect == 0)) {
      client.reset();
      const auto t = Clock::now();
      {
        cube::obs::Span span("bench.client.connect");
        client = std::make_unique<CubeClient>(sh.client);
      }
      out.connect_ms.push_back(ms_since(t));
      until_reconnect = 24 + reconnect_rng.below(25);
    }
    --until_reconnect;
    const Request req = sh.next(rng);
    out.digest = mix(out.digest, req.key);
    ++out.attempted;
    const bool traced_before = cube::obs::tracing_enabled();
    try {
      const auto t0 = Clock::now();
      ClientResult r = [&] {
        cube::obs::Span span("bench.client.query");
        return client->query(req.text);
      }();
      Sample s;
      s.rt_ms = ms_since(t0);
      s.server_ms = r.server_ms;
      s.wire = r.wire_bytes;
      s.traced = traced_before && cube::obs::tracing_enabled();
      out.samples.push_back(s);
      if (mix(opt.seed ^ index, k) % sh.check_rate == 0) {
        run_reference_check(sh, req.text, r, out);
      }
      if (opt.trace && k % 16 == 0) {
        // Same text twice more, both now cache hits: query() minus
        // query_raw() is the client-side decode of that hit.
        const auto t1 = Clock::now();
        cube::server::ResultPayload raw = [&] {
          cube::obs::Span span("bench.client.query_raw");
          return client->query_raw(req.text);
        }();
        const double raw_ms = ms_since(t1);
        const auto t2 = Clock::now();
        {
          cube::obs::Span span("bench.client.query");
          (void)client->query(req.text);
        }
        out.decode_ms.push_back(ms_since(t2) - raw_ms);
        out.extra_requests += 2;
        if (out.payloads.size() < 16) {
          out.payloads.push_back(cube::server::encode_result(raw));
        }
      }
    } catch (const cube::server::BusyError& e) {
      ++out.busy;
      out.fail(std::string("busy: ") + e.what());
    } catch (const cube::server::RemoteError& e) {
      ++out.errors;
      out.fail(req.text + ": " + e.what());
    } catch (const cube::Error& e) {
      ++out.errors;
      out.fail(req.text + ": " + e.what());
      client.reset();  // the session may be broken; reconnect
    }
  }
}

// --- ingest writer ----------------------------------------------------------

struct WriterResult {
  std::vector<double> store_rt_ms;  ///< from when each store was due
  std::vector<double> store_ms, remove_ms, refresh_ms, compact_ms, late_ms;
  std::uint64_t stores = 0, seals = 0, compactions = 0, failures = 0;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> live;  ///< (k, bytes)
  std::vector<std::string> messages;
};

void run_writer(const Options& opt, const fs::path& repo_dir,
                AnalysisService& service, std::atomic<std::uint64_t>& visible,
                std::deque<std::pair<std::uint64_t, std::uint64_t>> live,
                Clock::time_point start, WriterResult& out) {
  cube::obs::set_current_thread_name("writer");
  out.live = std::move(live);
  cube::ExperimentRepository writer(repo_dir);
  const std::uint64_t total =
      opt.ingest_stores
          ? opt.ingest_stores
          : static_cast<std::uint64_t>(opt.seconds * kIngestStoresPerSecond);
  std::uint64_t k = kIngestRetain;
  const auto active_segment = [&] {
    return writer.segmented_index()->segment_names().back();
  };
  for (std::uint64_t i = 0; i < total; ++i, ++k) {
    const cube::Experiment run = make_run(ingest_run(opt.seed, k));
    const std::uint64_t user_bytes = cube::to_cube_binary(run).size();
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(i) / kIngestStoresPerSecond));
    if (!opt.ingest_stores) std::this_thread::sleep_until(due);
    out.late_ms.push_back(std::max(0.0, -std::chrono::duration<double, std::milli>(
                                             due - Clock::now())
                                             .count()));
    try {
      writer.refresh();
      const std::string before = active_segment();
      auto t = Clock::now();
      {
        cube::obs::Span span("bench.io.store");
        (void)writer.store(run, cube::RepoFormat::Columnar);
      }
      out.store_ms.push_back(ms_since(t));
      out.store_rt_ms.push_back(
          opt.ingest_stores ? out.store_ms.back() : ms_since(due));
      ++out.stores;
      out.live.emplace_back(k, user_bytes);
      if (out.live.size() > kIngestRetain) {
        t = Clock::now();
        {
          cube::obs::Span span("bench.io.remove");
          writer.remove(numbered("ing", out.live.front().first));
        }
        out.remove_ms.push_back(ms_since(t));
        out.live.pop_front();
      }
      if (active_segment() != before) ++out.seals;
      t = Clock::now();
      std::size_t superseded = 0;
      {
        cube::obs::Span span("bench.io.compact");
        superseded = writer.compact_if_needed();
      }
      if (superseded > 0) {
        out.compact_ms.push_back(ms_since(t));
        ++out.compactions;
      }
      if ((k + 1) % kIngestBatch == 0) {
        // The daemon's housekeeping tick, driven from here so it never
        // interleaves with this writer's index mutations.
        t = Clock::now();
        {
          cube::obs::Span span("bench.io.refresh");
          (void)service.refresh();
        }
        out.refresh_ms.push_back(ms_since(t));
        visible.store(k / kIngestBatch, std::memory_order_release);
      }
    } catch (const cube::Error& e) {
      ++out.failures;
      if (out.messages.size() < 4) out.messages.push_back(e.what());
    }
  }
}

// --- setup ------------------------------------------------------------------

SetupResult setup_once(const Options& opt, const fs::path& repo_dir,
                       const fs::path& socket,
                       const std::vector<RunShape>& runs,
                       const std::vector<std::string>& warm,
                       std::vector<double>& store_ms,
                       std::vector<std::uint64_t>& user_bytes) {
  const bool size_runs = user_bytes.empty();
  std::error_code ec;
  fs::remove_all(repo_dir, ec);
  fs::remove(socket, ec);
  SetupResult out;
  double total_ms = 0.0;
  auto t = Clock::now();
  out.daemon.repo = std::make_unique<cube::ExperimentRepository>(
      repo_dir, cube::RepoLayout::Sharded);
  total_ms += ms_since(t);
  for (const RunShape& shape : runs) {
    const cube::Experiment e = make_run(shape);  // input generation, untimed
    if (size_runs) user_bytes.push_back(cube::to_cube_binary(e).size());
    t = Clock::now();
    {
      cube::obs::Span span("bench.io.store");
      (void)out.daemon.repo->store(e, cube::RepoFormat::Columnar);
    }
    store_ms.push_back(ms_since(t));
    total_ms += store_ms.back();
  }
  t = Clock::now();
  cube::server::ServiceConfig sc;  // the daemon's defaults, except:
  // cold_series must never hit, and ingest_mixed's writer is the only
  // instance that may append to the index (two appending instances can
  // race on sealing a segment).
  sc.store_derived = opt.workload == Workload::HotReplay;
  out.daemon.service =
      std::make_unique<AnalysisService>(*out.daemon.repo, sc);
  cube::server::ServerConfig cfg;
  cfg.socket_path = socket;
  if (opt.workload == Workload::IngestMixed) cfg.refresh_interval_ms = 0;
  out.daemon.server =
      std::make_unique<CubedServer>(*out.daemon.service, cfg);
  out.daemon.server->start();
  if (!warm.empty()) {
    ClientConfig cc;
    cc.socket_path = socket;
    CubeClient client(cc);
    for (const std::string& q : warm) (void)client.query(q);
  }
  total_ms += ms_since(t);
  out.seconds = total_ms / 1000.0;
  return out;
}

// --- trace-mode layer probes ------------------------------------------------

struct AlgebraProbe {
  double integrate_ms = 0.0, mean64_ms = 0.0, mean64_seq_ms = 0.0;
  double diff_ms = 0.0, merge_ms = 0.0;
  std::vector<double> load_ms;
};

template <class F>
double median_ms(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const auto t = Clock::now();
    f();
    v.push_back(ms_since(t));
  }
  return median(std::move(v));
}

/// Operators on preloaded operands: `series` (up to 64 ids, cycled to 64
/// operand slots), `remap` integrated with the series' first operands,
/// and pairs for diff and merge.
AlgebraProbe probe_algebra(const cube::ExperimentRepository& repo,
                           const std::vector<std::string>& series,
                           const std::vector<std::string>& remap,
                           std::pair<std::string, std::string> diff_pair,
                           std::pair<std::string, std::string> merge_pair) {
  AlgebraProbe p;
  std::map<std::string, cube::Experiment> loaded;
  auto load = [&](const std::string& id) -> const cube::Experiment& {
    auto it = loaded.find(id);
    if (it != loaded.end()) return it->second;
    const auto t = Clock::now();
    cube::Experiment e = [&] {
      cube::obs::Span span("bench.io.load");
      return repo.load(id);
    }();
    p.load_ms.push_back(ms_since(t));
    return loaded.emplace(id, std::move(e)).first->second;
  };
  std::vector<const cube::Experiment*> ops;
  for (std::size_t i = 0; i < 64; ++i) {
    ops.push_back(&load(series[i % series.size()]));
  }
  std::vector<const cube::Experiment*> mixed;
  for (std::size_t i = 0; i < 8 && i < series.size(); ++i) {
    mixed.push_back(&load(series[i]));
  }
  for (const std::string& id : remap) mixed.push_back(&load(id));
  const cube::Experiment& da = load(diff_pair.first);
  const cube::Experiment& db = load(diff_pair.second);
  const cube::Experiment& ma = load(merge_pair.first);
  const cube::Experiment& mb = load(merge_pair.second);

  cube::ThreadPool pool(4);
  cube::OperatorOptions par;
  par.parallel_for = [&pool](std::size_t n,
                             const std::function<void(std::size_t)>& body) {
    pool.parallel_for(n, body);
  };
  const cube::OperatorOptions seq;
  p.integrate_ms = median_ms(5, [&] {
    cube::obs::Span span("bench.algebra.integrate");
    (void)cube::integrate_metadata(mixed);
  });
  p.mean64_seq_ms = median_ms(5, [&] {
    cube::obs::Span span("bench.algebra.mean");
    (void)cube::mean(ops, seq);
  });
  p.mean64_ms = median_ms(5, [&] {
    cube::obs::Span span("bench.algebra.mean");
    (void)cube::mean(ops, par);
  });
  p.diff_ms = median_ms(5, [&] {
    cube::obs::Span span("bench.algebra.diff");
    (void)cube::difference(da, db, par);
  });
  p.merge_ms = median_ms(5, [&] {
    cube::obs::Span span("bench.algebra.merge");
    (void)cube::merge(ma, mb, par);
  });
  return p;
}

/// Flips tracing on and off every 250 ms while alive, so one traced run
/// measures both sides of obs.trace_overhead_ratio on the same traffic.
class TraceToggler {
 public:
  TraceToggler() : thread_([this] { loop(); }) {}
  ~TraceToggler() {
    stop_.store(true);
    thread_.join();
    cube::obs::disable_tracing();
  }
  TraceToggler(const TraceToggler&) = delete;
  TraceToggler& operator=(const TraceToggler&) = delete;

 private:
  void loop() {
    for (int tick = 0; !stop_.load(); ++tick) {
      if (tick % 25 == 0) {
        if ((tick / 25) % 2 == 0) {
          cube::obs::enable_tracing();
        } else {
          cube::obs::disable_tracing();
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Rounds of the timed phase (see run_workload).
constexpr int kRounds = 8;

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

}  // namespace

Report run_workload(const Options& opt) {
  Report report;
  auto line = [&](std::string s) { report.lines.push_back(std::move(s)); };
  auto metric = [&](std::string name, double value, std::string unit) {
    report.metrics.push_back({std::move(name), value, std::move(unit)});
  };

  std::error_code ec;
  fs::create_directories(opt.work_dir);
  const fs::path repo_dir = opt.work_dir / "repo";
  const fs::path socket = opt.work_dir / "cubed.sock";
  cube::obs::set_current_thread_name("main");

  // ---- inputs -------------------------------------------------------------
  const std::vector<RunShape> runs = setup_runs(opt.workload, opt.seed);
  std::vector<std::string> hot;
  if (opt.workload == Workload::HotReplay) hot = hot_queries(opt.seed);
  std::vector<std::uint64_t> user_bytes;  // serialized size of each run

  // ---- setup (repeated; the last one is kept) -----------------------------
  std::vector<double> setup_s, setup_store_ms;
  SetupResult setup;
  for (int i = 0; i < std::max(1, opt.setups); ++i) {
    shutdown(setup.daemon);
    setup = setup_once(opt, repo_dir, socket, runs, hot, setup_store_ms,
                       user_bytes);
    setup_s.push_back(setup.seconds);
  }
  Daemon& daemon = setup.daemon;
  const std::uint64_t setup_repo_bytes = dir_bytes(repo_dir);
  // Flush the set-up's writes now, untimed: the kernel would otherwise
  // write them back ~30 s later, in the middle of the timed phase.
  if (const int fd = ::open(repo_dir.c_str(), O_RDONLY | O_DIRECTORY);
      fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
  const double setup_rss_mib = status_mib("VmRSS:");
  std::uint64_t setup_user_bytes = 0;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> ingest_live;
  for (std::size_t i = 0; i < user_bytes.size(); ++i) {
    setup_user_bytes += user_bytes[i];
    if (opt.workload == Workload::IngestMixed) {
      ingest_live.emplace_back(i, user_bytes[i]);
    }
  }

  // ---- checker ------------------------------------------------------------
  cube::query::QueryOptions qo;
  // cold_series checks after the timed phase, on all cores; the others
  // check inline, on the session's own thread.
  qo.threads = opt.workload == Workload::ColdSeries ? 4 : 1;
  qo.use_cache = false;
  qo.store_derived = false;
  // The checker reads through the daemon's own repository instance, so it
  // resolves selectors against exactly the view the daemon answered from.
  cube::ExperimentRepository* checker_repo = daemon.repo.get();
  cube::query::QueryEngine checker(*checker_repo, qo);

  Shared sh;
  sh.opt = &opt;
  sh.client.socket_path = socket;
  sh.client.name = "perfbench";
  sh.checker = &checker;
  sh.checker_repo = checker_repo;
  std::map<std::string, std::string> references;
  std::vector<RefRun> setup_refs;
  std::atomic<std::uint64_t> visible{kIngestRetain / kIngestBatch - 1};
  std::size_t sessions = 0;
  switch (opt.workload) {
    case Workload::HotReplay: {
      for (const std::string& q : hot) {
        RefRun r = reference_run(checker, *checker_repo, q);
        references[q] = std::move(r.bytes);
        r.bytes.clear();
        setup_refs.push_back(std::move(r));
      }
      auto zipf = std::make_shared<ZipfPicker>(hot.size(), opt.seed);
      sh.next = [zipf, &hot](Rng& rng) {
        const std::size_t i = zipf->pick(rng);
        return Request{hot[i], i};
      };
      sh.reconnect = true;
      sh.check_rate = 16;
      sh.references = &references;
      sessions = 4;
      break;
    }
    case Workload::ColdSeries:
      sh.next = [](Rng& rng) { return cold_query(rng); };
      sh.check_rate = opt.trace ? 8 : 16;
      sh.defer_checks = true;
      sessions = 2;
      break;
    case Workload::IngestMixed:
      sh.next = [&visible](Rng& rng) {
        return ingest_query(rng, visible.load(std::memory_order_acquire));
      };
      sh.check_rate = opt.trace ? 8 : 16;
      sessions = 2;
      break;
  }

  // ---- timed phase ----------------------------------------------------------
  cube::obs::MetricsRegistry::global().reset();
  cube::obs::Tracer::instance().reset();
  std::vector<SessionResult> results(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    results[i].rng = Rng(mix(opt.seed, 100 + i));
    results[i].reconnect_rng = Rng(mix(opt.seed, 200 + i));
    results[i].digest = mix(opt.seed, i);
  }
  WriterResult writer;
  // The timed phase runs in rounds, each with freshly started session
  // threads and connections, so one unlucky thread placement cannot set
  // a whole run's percentiles.  The writer runs across all rounds.
  const int rounds = opt.queries_per_session ? 1 : kRounds;
  std::vector<double> round_p50, round_p99, round_qps;
  const auto start = Clock::now();
  {
    std::unique_ptr<TraceToggler> toggler;
    if (opt.trace) toggler = std::make_unique<TraceToggler>();
    std::thread writer_thread;
    if (opt.workload == Workload::IngestMixed) {
      writer_thread = std::thread([&] {
        run_writer(opt, repo_dir, *daemon.service, visible, ingest_live,
                   start, writer);
      });
    }
    for (int round = 0; round < rounds; ++round) {
      const auto deadline =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(opt.seconds * (round + 1) /
                                                    rounds));
      std::vector<std::size_t> first(sessions);
      std::vector<std::thread> threads;
      for (std::size_t i = 0; i < sessions; ++i) {
        first[i] = results[i].samples.size();
        threads.emplace_back(
            [&, i] { run_session(sh, i, deadline, results[i]); });
      }
      for (std::thread& t : threads) t.join();
      std::vector<double> rt;
      for (std::size_t i = 0; i < sessions; ++i) {
        for (std::size_t j = first[i]; j < results[i].samples.size(); ++j) {
          rt.push_back(results[i].samples[j].rt_ms);
        }
      }
      round_qps.push_back(static_cast<double>(rt.size()) /
                          (opt.queries_per_session
                               ? ms_since(start) / 1000.0
                               : opt.seconds / rounds));
      round_p99.push_back(percentile(rt, 0.99).value);
      round_p50.push_back(median(std::move(rt)));
    }
    if (writer_thread.joinable()) writer_thread.join();
  }
  const double wall_s = ms_since(start) / 1000.0;

  // ---- server-side counts through the Stats endpoint ----------------------
  ClientConfig monitor_cfg = sh.client;
  monitor_cfg.name = "perfbench-monitor";
  const std::vector<cube::obs::MetricSample> stats =
      CubeClient(monitor_cfg).stats().samples;
  const double srv_queries = sample_of(stats, "server.queries");
  const double srv_hits = sample_of(stats, "server.cache_hits");
  const double srv_busy = sample_of(stats, "server.busy");
  const double srv_computes = sample_of(stats, "server.computes");
  const double queue_wait_ms =
      1000.0 * sample_of(stats, "server.queue_wait", true);
  const double sev_bytes_read = sample_of(stats, "io.sev.bytes_read");

  // ---- merge session results ----------------------------------------------
  std::vector<double> rt, rt_traced, rt_untraced, server_ms, wire_ms;
  std::vector<double> connect_ms, decode_ms;
  std::vector<std::string> payloads, failures;
  std::vector<RefRun> refs = setup_refs;
  std::uint64_t attempted = 0, busy = 0, errors = 0, mismatches = 0,
                extra = 0, wire_total = 0;
  std::uint64_t digest = 0;
  for (SessionResult& r : results) {
    for (const Sample& s : r.samples) {
      rt.push_back(s.rt_ms);
      (s.traced ? rt_traced : rt_untraced).push_back(s.rt_ms);
      server_ms.push_back(s.server_ms);
      wire_ms.push_back(std::max(0.0, s.rt_ms - s.server_ms));
      wire_total += s.wire;
    }
    connect_ms.insert(connect_ms.end(), r.connect_ms.begin(),
                      r.connect_ms.end());
    decode_ms.insert(decode_ms.end(), r.decode_ms.begin(), r.decode_ms.end());
    payloads.insert(payloads.end(), r.payloads.begin(), r.payloads.end());
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    for (RefRun& ref : r.refs) refs.push_back(std::move(ref));
    attempted += r.attempted;
    busy += r.busy;
    errors += r.errors;
    mismatches += r.mismatches;
    extra += r.extra_requests;
    digest = mix(digest, r.digest);
  }
  // Deferred checks run now, after the timed phase.
  for (const SessionResult& r : results) {
    for (const auto& [text, digest] : r.deferred) {
      RefRun ref = reference_run(checker, *checker_repo, text);
      if (cube::fnv1a(ref.bytes) != digest) {
        ++mismatches;
        if (failures.size() < 8) failures.push_back("output mismatch: " + text);
      }
      ref.bytes.clear();
      refs.push_back(std::move(ref));
    }
  }
  std::uint64_t mispredicts = 0, exact_checked = 0;
  for (const RefRun& r : refs) {
    exact_checked += r.exact;
    mispredicts += r.mispredict;
  }
  for (const std::string& m : writer.messages) failures.push_back(m);

  const double hit_ratio =
      srv_queries > static_cast<double>(extra)
          ? (srv_hits - static_cast<double>(extra)) /
                (srv_queries - static_cast<double>(extra))
          : 0.0;
  const double busy_ratio = srv_queries > 0 ? srv_busy / srv_queries : 0.0;

  // ---- per-layer probes (traced run only) ---------------------------------
  AlgebraProbe algebra;
  std::vector<double> decode_result_ms;
  double payload_bytes = 0.0;
  std::size_t lint_errors = 0;
  if (opt.trace) {
    cube::obs::enable_tracing();
    for (const std::string& p : payloads) {
      decode_result_ms.push_back(median_ms(5, [&] {
        cube::obs::Span span("bench.protocol.decode_result");
        (void)cube::server::decode_result(p);
      }));
      payload_bytes += static_cast<double>(p.size());
    }
    if (!payloads.empty()) payload_bytes /= static_cast<double>(payloads.size());
    std::vector<std::string> series, remap;
    std::pair<std::string, std::string> diff_pair, merge_pair;
    switch (opt.workload) {
      case Workload::HotReplay:
        for (std::size_t i = 0; i < kHotRuns; ++i) {
          series.push_back(numbered("h", i));
        }
        diff_pair = {"h0", "h1"};
        merge_pair = {"h2", "h3"};
        break;
      case Workload::ColdSeries:
        for (int i = 0; i < 64; ++i) series.push_back(numbered("ad", i));
        for (int i = 0; i < 8; ++i) remap.push_back(numbered("bd", i));
        diff_pair = {"ad0", "bd0"};
        merge_pair = {"ad1", "md0"};
        break;
      case Workload::IngestMixed: {
        const auto& live = writer.live.empty() ? ingest_live : writer.live;
        for (std::size_t i = live.size() >= 64 ? live.size() - 64 : 0;
             i < live.size(); ++i) {
          series.push_back(numbered("ing", live[i].first));
        }
        diff_pair = {series.front(), series.back()};
        merge_pair = {series[1], series[2]};
        break;
      }
    }
    algebra = probe_algebra(*checker_repo, series, remap, diff_pair,
                            merge_pair);
    cube::obs::disable_tracing();
    if (!opt.trace_dir.empty()) {
      const std::string name = std::string("perfbench.") +
                               workload_name(opt.workload) + ".seed" +
                               std::to_string(opt.seed);
      lint_errors = export_trace(opt.trace_dir, name,
                                 cube::obs::Tracer::instance().snapshot(),
                                 cube::obs::MetricsRegistry::global());
      line("trace export: " + opt.trace_dir.string() +
           " (profile.cube, trace.json, layers.json), " +
           std::to_string(lint_errors) + " lint errors");
      for (const LayerSummary& l :
           summarize_layers(cube::obs::Tracer::instance().snapshot())) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "layer %-8s spans %8llu  busy %10.2f ms  self %10.2f ms",
                      l.layer.c_str(),
                      static_cast<unsigned long long>(l.spans), l.busy_ms,
                      l.self_ms);
        line(buf);
      }
    }
  }

  // ---- the repository at the end ------------------------------------------
  const std::uint64_t end_repo_bytes = dir_bytes(repo_dir);
  std::uint64_t live_user_bytes = setup_user_bytes;
  if (opt.workload == Workload::IngestMixed) {
    live_user_bytes = 0;
    for (const auto& [k, b] : writer.live) live_user_bytes += b;
  }

  // Stop the daemon and drop the scratch directory.
  checker_repo = nullptr;
  shutdown(daemon);
  fs::remove_all(opt.work_dir, ec);

  // ---- exact counts -----------------------------------------------------------
  report.counts.requests = attempted;
  report.counts.request_digest = digest;
  report.counts.wire_bytes = wire_total;
  report.counts.operands_loaded =
      static_cast<std::uint64_t>(sample_of(stats, "query.operands_loaded"));
  report.counts.kernel_cells = kernel_cells(stats);
  report.counts.stores = writer.stores;
  report.counts.seals = writer.seals;
  report.counts.compactions = writer.compactions;

  // ---- checks -------------------------------------------------------------
  const std::uint64_t failed = busy + errors + mismatches + writer.failures;
  bool correct = failed == 0 && mispredicts == 0 && lint_errors == 0 &&
                 !rt.empty();
  switch (opt.workload) {
    case Workload::HotReplay:
      if (hit_ratio < 0.99) {
        correct = false;
        line(fmt("FAIL: hot_replay cache hit ratio %.4f < 0.99", hit_ratio));
      }
      break;
    case Workload::ColdSeries:
      if (srv_hits - static_cast<double>(extra) > 0.0) {
        correct = false;
        line("FAIL: cold_series served cache hits");
      }
      break;
    case Workload::IngestMixed:
      // Seals and compactions follow from the store count alone (the
      // writer is the only appender), so this holds whenever a run stores
      // enough: 1800 stores complete three seal/compaction cycles.
      if (writer.stores >= 1800 &&
          (writer.seals < 2 || writer.compactions < 2)) {
        correct = false;
        line("FAIL: ingest_mixed sealed " + std::to_string(writer.seals) +
             " and compacted " + std::to_string(writer.compactions) +
             " times; expected >= 2 each");
      }
      break;
  }
  for (const std::string& f : failures) line("failure: " + f);
  report.correct = correct;
  report.attempted = attempted + writer.stores + writer.failures;
  report.failed = failed;

  // ---- human-readable summary ------------------------------------------------
  const Quantile rt50 = percentile(rt, 0.50);
  const Quantile rt99 = percentile(rt, 0.99);
  line(std::string("workload ") + workload_name(opt.workload) + ", seed " +
       std::to_string(opt.seed) + ", " + std::to_string(sessions) +
       " sessions, " + fmt("%.1f s", wall_s) +
       (opt.trace ? ", traced" : ""));
  line(describe("query rt p50", rt50, "ms"));
  for (const auto& [label, values] :
       {std::pair{"query rt p50 per round:", &round_p50},
        std::pair{"query rt p99 per round:", &round_p99}}) {
    std::string per_round = label;
    for (double v : *values) per_round += fmt(" %.4f", v);
    line(per_round + " ms");
  }
  line(describe("query rt p99", rt99, "ms"));
  line("queries attempted " + std::to_string(attempted) + ", busy " +
       std::to_string(busy) + ", errors " + std::to_string(errors) +
       ", output mismatches " + std::to_string(mismatches) +
       fmt(", query_fail_ratio %.6f",
           attempted ? static_cast<double>(busy + errors + mismatches) /
                           static_cast<double>(attempted)
                     : 0.0));
  line(fmt("server cache hit ratio %.4f", hit_ratio) + " (" +
       std::to_string(static_cast<std::uint64_t>(srv_queries)) +
       " server queries, " + std::to_string(extra) + " decode probes)");
  line("reference runs " + std::to_string(refs.size()) + ", exact plans " +
       std::to_string(exact_checked) + ", analyzer mispredicts " +
       std::to_string(mispredicts));
  line(fmt("rss after set-up %.1f MiB", setup_rss_mib) +
       fmt(", peak %.1f MiB", status_mib("VmHWM:")));
  if (opt.workload == Workload::IngestMixed) {
    const std::vector<double>& store_rt = writer.store_rt_ms;
    line(describe("store rt p50 (from due)", percentile(store_rt, 0.5), "ms"));
    line(describe("store rt p99 (from due)", percentile(store_rt, 0.99), "ms"));
    line("stores " + std::to_string(writer.stores) + ", seals " +
         std::to_string(writer.seals) + ", compactions " +
         std::to_string(writer.compactions) +
         fmt(", writer late mean %.4f ms", mean_of(writer.late_ms)));
  }

  const double repo_ratio = live_user_bytes
                                ? static_cast<double>(end_repo_bytes) /
                                      static_cast<double>(live_user_bytes)
                                : 0.0;
  if (!opt.trace) {
    metric("setup_s", median(setup_s), "s");
    // Medians over rounds: a round disturbed by the host does not move
    // them.
    metric("query_rt_p50_ms", median(round_p50), "ms");
    // p99 is a median over rounds too when every round holds ten samples
    // beyond its p99; otherwise (cold_series) it pools the rounds.
    const bool rounds_support_p99 =
        static_cast<double>(rt.size()) / rounds >= 1000.0;
    metric("query_rt_p99_ms",
           rounds_support_p99 ? median(round_p99) : rt99.value, "ms");
    metric("queries_per_s", median(round_qps), "1/s");
    metric("wire_bytes_per_result",
           rt.empty() ? 0.0
                      : static_cast<double>(wire_total) /
                            static_cast<double>(rt.size()),
           "B");
    metric("repo_bytes_per_user_byte", repo_ratio, "ratio");
    return report;
  }

  // ---- per-layer metrics (traced run) -------------------------------------
  auto ref_p50 = [&](double RefRun::*field) {
    std::vector<double> v;
    for (const RefRun& r : refs) v.push_back(r.*field);
    return median(std::move(v));
  };
  auto ref_mean = [&](std::uint64_t RefRun::*field) {
    double s = 0.0;
    for (const RefRun& r : refs) s += static_cast<double>(r.*field);
    return refs.empty() ? 0.0 : s / static_cast<double>(refs.size());
  };
  double eval_s = 0.0, cells = 0.0;
  for (const RefRun& r : refs) {
    eval_s += r.eval_ms / 1000.0;
    cells += static_cast<double>(r.cells());
  }
  std::vector<double> store_ms = setup_store_ms;
  if (opt.workload == Workload::IngestMixed) store_ms = writer.store_ms;
  const double ref_and_computes =
      srv_computes + static_cast<double>(refs.size() - setup_refs.size());

  metric("server.wire_ms.p50", median(wire_ms), "ms");
  metric("server.service_ms.p50", median(server_ms), "ms");
  metric("server.cache_hit_ratio", hit_ratio, "ratio");
  metric("server.queue_wait_ms.p50", queue_wait_ms, "ms");
  metric("server.busy_ratio", busy_ratio, "ratio");
  metric("protocol.decode_result_ms", median(decode_result_ms), "ms");
  metric("protocol.result_bytes", payload_bytes, "B");
  metric("client.decode_ms", median(decode_ms), "ms");
  metric("client.connect_ms", median(connect_ms), "ms");
  metric("query.parse_ms", ref_p50(&RefRun::parse_ms), "ms");
  metric("query.plan_ms", ref_p50(&RefRun::plan_ms), "ms");
  metric("query.analyze_ms", ref_p50(&RefRun::analyze_ms), "ms");
  metric("query.exec_ms", ref_p50(&RefRun::exec_ms), "ms");
  metric("query.load_ms", ref_p50(&RefRun::load_ms), "ms");
  metric("query.eval_ms", ref_p50(&RefRun::eval_ms), "ms");
  metric("query.operands_loaded", ref_mean(&RefRun::operands), "count");
  metric("query.bytes_loaded", ref_mean(&RefRun::bytes_loaded), "B");
  metric("query.analyze_mispredicts", static_cast<double>(mispredicts),
         "count");
  metric("query.analyze_checked", static_cast<double>(exact_checked),
         "count");
  metric("io.load_ms.p50", median(algebra.load_ms), "ms");
  metric("io.sev_bytes_read",
         ref_and_computes > 0 ? sev_bytes_read / ref_and_computes : 0.0,
         "B");
  metric("io.store_ms.p50", percentile(store_ms, 0.5).value, "ms");
  metric("io.store_ms.p99", percentile(store_ms, 0.99).value, "ms");
  metric("io.remove_ms.p50", median(writer.remove_ms), "ms");
  metric("io.refresh_ms.p50", median(writer.refresh_ms), "ms");
  metric("io.compact_ms", median(writer.compact_ms), "ms");
  metric("io.compactions", static_cast<double>(writer.compactions), "count");
  metric("io.seals", static_cast<double>(writer.seals), "count");
  metric("io.bytes_written_per_store",
         static_cast<double>(setup_repo_bytes) /
             static_cast<double>(std::max<std::size_t>(1, runs.size())),
         "B");
  metric("algebra.integrate_ms", algebra.integrate_ms, "ms");
  metric("algebra.mean64_ms", algebra.mean64_ms, "ms");
  metric("algebra.diff_ms", algebra.diff_ms, "ms");
  metric("algebra.merge_ms", algebra.merge_ms, "ms");
  metric("algebra.cells_per_s", eval_s > 0 ? cells / eval_s : 0.0, "1/s");
  metric("algebra.pool_speedup",
         algebra.mean64_ms > 0 ? algebra.mean64_seq_ms / algebra.mean64_ms
                               : 0.0,
         "ratio");
  metric("algebra.kernel.identity_dense_cells", ref_mean(&RefRun::id_dense),
         "count");
  metric("algebra.kernel.remap_dense_cells", ref_mean(&RefRun::remap_dense),
         "count");
  metric("algebra.kernel.identity_sparse_nnz", ref_mean(&RefRun::id_sparse),
         "count");
  metric("algebra.kernel.remap_sparse_nnz", ref_mean(&RefRun::remap_sparse),
         "count");
  metric("algebra.kernel.batch_tiles", ref_mean(&RefRun::tiles), "count");
  const double untraced_p50 = median(rt_untraced);
  metric("obs.trace_overhead_ratio",
         untraced_p50 > 0 ? median(rt_traced) / untraced_p50 : 0.0, "ratio");
  metric("ingest.store_gen_late_ms", mean_of(writer.late_ms), "ms");
  metric("query_fail_ratio",
         attempted ? static_cast<double>(busy + errors + mismatches) /
                         static_cast<double>(attempted)
                   : 0.0,
         "ratio");
  metric("output_mismatches", static_cast<double>(mismatches), "count");
  return report;
}

}  // namespace perfbench

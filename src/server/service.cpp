#include "server/service.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "obs/json_export.hpp"
#include "obs/self_profile.hpp"
#include "obs/tracer.hpp"
#include "query/analyze.hpp"
#include "query/query_expr.hpp"

namespace cube::server {

namespace {

/// Internal marker: the query text itself failed to parse (parse_query
/// reports this as a plain Error, which would otherwise be
/// indistinguishable from a planning failure).
class QueryParseError : public Error {
 public:
  using Error::Error;
};

/// Internal signal: an owned computation was shed by admission control.
/// Thrown through ResultCache::fail so coalesced waiters surface the same
/// structured Busy outcome as the shedding owner.
class BusyShed : public Error {
 public:
  explicit BusyShed(BusyPayload payload)
      : Error("busy: " + payload.reason), payload_(std::move(payload)) {}
  [[nodiscard]] const BusyPayload& payload() const noexcept {
    return payload_;
  }

 private:
  BusyPayload payload_;
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

QueryOutcome error_outcome(std::string category, std::string message) {
  QueryOutcome out;
  out.status = QueryOutcome::Status::Error;
  out.error = ErrorPayload{std::move(category), std::move(message)};
  return out;
}

}  // namespace

AnalysisService::AnalysisService(ExperimentRepository& repo,
                                 ServiceConfig config)
    : config_(std::move(config)),
      repo_(repo),
      cache_(config_.cache_capacity_bytes),
      queries_(obs::MetricsRegistry::global().counter("server.queries")),
      cache_hits_(obs::MetricsRegistry::global().counter("server.cache_hits")),
      coalesced_(obs::MetricsRegistry::global().counter("server.coalesced")),
      computes_(obs::MetricsRegistry::global().counter("server.computes")),
      busy_(obs::MetricsRegistry::global().counter("server.busy")),
      rejected_(obs::MetricsRegistry::global().counter("server.rejected")),
      errors_(obs::MetricsRegistry::global().counter("server.errors")),
      queue_wait_hist_(obs::MetricsRegistry::global().histogram(
          "server.queue_wait", obs::SampleUnit::Seconds)),
      service_time_(obs::MetricsRegistry::global().histogram(
          "server.service_time", obs::SampleUnit::Seconds)),
      inflight_gauge_(obs::MetricsRegistry::global().gauge("server.inflight")),
      inflight_peak_(
          obs::MetricsRegistry::global().gauge("server.inflight_peak")),
      cache_bytes_(obs::MetricsRegistry::global().gauge(
          "server.cache_bytes", obs::SampleUnit::Bytes)),
      start_(std::chrono::steady_clock::now()),
      slow_log_(config_.slow_log_capacity, config_.slow_log_threshold_ms) {
  if (config_.threads == 0) config_.threads = ThreadPool::default_threads();
  if (config_.max_inflight == 0) config_.max_inflight = 2 * config_.threads;
  window_ =
      std::make_unique<obs::RegistryWindow>(obs::MetricsRegistry::global());
  next_window_ns_ =
      now_ns() +
      static_cast<std::int64_t>(config_.self_profile_interval_s) * 1000000000;
  pool_ = std::make_unique<ThreadPool>(config_.threads);

  query::QueryOptions options;
  options.threads = config_.threads;
  options.store_derived = config_.store_derived;
  options.validate_loads = config_.validate_loads;
  engine_ = std::make_unique<query::QueryEngine>(repo_, options, *pool_);
}

AnalysisService::~AnalysisService() = default;

AnalysisService::PlannedQuery AnalysisService::resolve_plan(
    const std::string& text) {
  const std::uint64_t epoch = plan_epoch_.load(std::memory_order_acquire);
  {
    ts::MutexLock lock(plan_mutex_);
    auto it = plan_cache_.find(text);
    if (it != plan_cache_.end() && it->second.epoch == epoch) {
      return it->second;
    }
  }
  OBS_SPAN("server.plan");
  // parse_query reports syntax problems as plain Error; promote them so
  // the wire error category distinguishes parse from plan failures.
  std::unique_ptr<query::QueryExpr> expr;
  try {
    expr = query::parse_query(text);
  } catch (const Error& e) {
    throw QueryParseError(e.what());
  }
  PlannedQuery planned;
  planned.epoch = epoch;
  planned.plan =
      std::make_shared<const query::QueryPlan>(engine_->plan(*expr));
  planned.key = planned.plan->nodes[planned.plan->root].key;
  planned.canonical = planned.plan->nodes[planned.plan->root].canonical;
  if (config_.admission_analysis) analyze_admission(planned);
  {
    ts::MutexLock lock(plan_mutex_);
    plan_cache_[text] = planned;
  }
  return planned;
}

void AnalysisService::analyze_admission(PlannedQuery& planned) {
  OBS_SPAN("server.analyze");
  lint::DiagnosticSink sink;
  query::AnalyzeOptions options;
  options.budget_bytes = config_.budget_bytes;
  options.use_cache = engine_->options().use_cache;
  options.run_plan_lint = false;  // perf.* advisories are not gate-worthy
  options.operators = engine_->options().operators;
  try {
    (void)query::analyze_plan(*planned.plan, repo_, sink, options);
  } catch (const std::exception&) {
    // Analysis must never turn an executable query into a rejection: an
    // unexpected analyzer failure admits the plan and lets the eval path
    // report whatever is actually wrong.
    return;
  }
  if (!sink.reached(lint::Level::Error)) return;
  planned.admissible = false;
  planned.rejection.category = "analysis";
  for (const lint::Diagnostic& d : sink.diagnostics()) {
    if (planned.rejection.message.empty() && d.level == lint::Level::Error) {
      planned.rejection.message = d.rule + ": " + d.message;
    }
    planned.rejection.diagnostics.push_back(
        WireDiagnostic{d.rule, static_cast<std::uint32_t>(d.level),
                       d.location, d.message, d.hint});
  }
}

BusyPayload AnalysisService::busy_payload(const std::string& reason) const {
  BusyPayload busy;
  busy.retry_ms = config_.busy_retry_ms;
  busy.inflight = inflight_.load(std::memory_order_relaxed);
  busy.queue_wait_ms = queue_wait_ewma_ms_.load(std::memory_order_relaxed);
  busy.reason = reason;
  return busy;
}

void AnalysisService::note_queue_wait(double ms) {
  // Half-weight blend toward the newest sample; recent_queue_wait_ms()
  // additionally decays the value by age, so a single slow sample cannot
  // shed traffic forever.
  const double old = queue_wait_ewma_ms_.load(std::memory_order_relaxed);
  const double blended =
      queue_wait_stamp_ns_.load(std::memory_order_relaxed) == 0
          ? ms
          : 0.5 * old + 0.5 * ms;
  queue_wait_ewma_ms_.store(blended, std::memory_order_relaxed);
  queue_wait_stamp_ns_.store(now_ns(), std::memory_order_relaxed);
  queue_wait_hist_.observe(ms / 1000.0);
}

double AnalysisService::recent_queue_wait_ms() {
  bool expected = false;
  if (probe_outstanding_.compare_exchange_strong(expected, true,
                                                 std::memory_order_acq_rel)) {
    const std::int64_t submitted = now_ns();
    pool_->submit([this, submitted] {
      note_queue_wait(static_cast<double>(now_ns() - submitted) / 1e6);
      probe_outstanding_.store(false, std::memory_order_release);
    });
  }
  const std::int64_t stamp =
      queue_wait_stamp_ns_.load(std::memory_order_relaxed);
  if (stamp == 0) return 0.0;
  // Half-life of one second: a wait observed two seconds ago counts a
  // quarter of its value.
  const double age_s = static_cast<double>(now_ns() - stamp) / 1e9;
  return queue_wait_ewma_ms_.load(std::memory_order_relaxed) *
         std::pow(0.5, age_s);
}

QueryOutcome AnalysisService::handle_query(const std::string& text,
                                           std::uint64_t request_id) {
  obs::Span query_span("server.query");
  if (request_id != 0) query_span.tag(request_id);
  const std::int64_t t0 = now_ns();
  queries_.add();
  // The slow-query log entry for this query, filled in as the phases run.
  // Until a plan resolves, the canonical text is the raw query text.
  WireSlowQuery slow;
  slow.request_id = request_id;
  slow.canonical = text;
  slow.outcome = "error";
  auto finish = [&](QueryOutcome out) {
    out.server_ms = static_cast<double>(now_ns() - t0) / 1e6;
    service_time_.observe(out.server_ms / 1000.0);
    cache_bytes_.set(static_cast<double>(cache_.size_bytes()));
    slow.server_ms = out.server_ms;
    slow_log_.record(std::move(slow));
    return out;
  };

  if (config_.force_busy) {
    busy_.add();
    slow.outcome = "busy";
    QueryOutcome out;
    out.status = QueryOutcome::Status::Busy;
    out.busy = busy_payload("forced by configuration");
    return finish(out);
  }

  PlannedQuery planned;
  const std::int64_t plan_t0 = now_ns();
  try {
    planned = resolve_plan(text);
    slow.plan_ms = static_cast<double>(now_ns() - plan_t0) / 1e6;
  } catch (const QueryParseError& e) {
    slow.plan_ms = static_cast<double>(now_ns() - plan_t0) / 1e6;
    errors_.add();
    return finish(error_outcome("parse", e.what()));
  } catch (const Error& e) {
    slow.plan_ms = static_cast<double>(now_ns() - plan_t0) / 1e6;
    errors_.add();
    return finish(error_outcome("plan", e.what()));
  }
  slow.canonical = planned.canonical;

  if (!planned.admissible) {
    // Rejected by static analysis: refuse BEFORE touching the result
    // cache or the pool — an inadmissible plan must not occupy a
    // coalescing slot or trigger a computation.
    rejected_.add();
    errors_.add();
    slow.outcome = "rejected";
    QueryOutcome out;
    out.status = QueryOutcome::Status::Error;
    out.error = planned.rejection;
    return finish(out);
  }

  ResultCache::Lookup lookup;
  try {
    lookup = cache_.acquire(planned.key);
  } catch (const BusyShed& e) {
    busy_.add();
    slow.outcome = "busy";
    QueryOutcome out;
    out.status = QueryOutcome::Status::Busy;
    out.busy = e.payload();
    return finish(out);
  } catch (const Error& e) {
    // Coalesced onto a computation that failed.
    errors_.add();
    return finish(error_outcome("eval", e.what()));
  }

  if (lookup.outcome != ResultCache::Outcome::Owner) {
    const bool hit = lookup.outcome == ResultCache::Outcome::Hit;
    (hit ? cache_hits_ : coalesced_).add();
    slow.outcome = hit ? "hit" : "coalesced";
    QueryOutcome out;
    out.status = QueryOutcome::Status::Ok;
    out.served = hit ? Served::CacheHit : Served::Coalesced;
    out.result = std::move(lookup.result);
    return finish(out);
  }

  // Owner path: this thread must compute — unless admission sheds it.
  std::string shed_reason;
  const double wait_ms = recent_queue_wait_ms();
  if (inflight_.load(std::memory_order_relaxed) >= config_.max_inflight) {
    shed_reason = "computation ceiling reached";
  } else if (wait_ms > config_.busy_queue_wait_ms) {
    shed_reason = "executor queue wait degraded";
  }
  if (!shed_reason.empty()) {
    busy_.add();
    slow.outcome = "busy";
    QueryOutcome out;
    out.status = QueryOutcome::Status::Busy;
    out.busy = busy_payload(shed_reason);
    cache_.fail(planned.key,
                [busy = out.busy] { throw BusyShed(busy); });
    return finish(out);
  }

  inflight_.fetch_add(1, std::memory_order_relaxed);
  {
    const double level =
        static_cast<double>(inflight_.load(std::memory_order_relaxed));
    inflight_gauge_.set(level);
    inflight_peak_.record_max(level);
  }
  try {
    const std::int64_t compute_t0 = now_ns();
    obs::Span compute_span("server.compute");
    if (request_id != 0) compute_span.tag(request_id);
    if (config_.before_compute) config_.before_compute();
    query::QueryResult result = engine_->run_plan(*planned.plan);
    slow.compute_ms = static_cast<double>(now_ns() - compute_t0) / 1e6;

    // Encoded once, here on the owner's thread, before publish() takes
    // the cache mutex; every later hit writes these bytes as they are.
    CachedResult cached;
    {
      const std::int64_t ser_t0 = now_ns();
      OBS_SPAN("server.serialize");
      cached = CachedResult::encode(std::move(result.canonical),
                                    result.experiment);
      slow.serialize_ms = static_cast<double>(now_ns() - ser_t0) / 1e6;
    }
    std::shared_ptr<const CachedResult> published =
        cache_.publish(planned.key, std::move(cached));
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    inflight_gauge_.set(
        static_cast<double>(inflight_.load(std::memory_order_relaxed)));
    computes_.add();
    slow.outcome = "computed";

    QueryOutcome out;
    out.status = QueryOutcome::Status::Ok;
    out.served = Served::Computed;
    out.result = std::move(published);
    return finish(out);
  } catch (...) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    inflight_gauge_.set(
        static_cast<double>(inflight_.load(std::memory_order_relaxed)));
    errors_.add();
    try {
      throw;
    } catch (const Error& e) {
      cache_.fail(planned.key,
                  [msg = std::string(e.what())] { throw Error(msg); });
      return finish(error_outcome("eval", e.what()));
    } catch (const std::exception& e) {
      cache_.fail(planned.key,
                  [msg = std::string(e.what())] { throw Error(msg); });
      return finish(error_outcome("internal", e.what()));
    }
  }
}

namespace {

void write_server_field(std::ostream& out, const char* key, double value,
                        bool first = false) {
  if (!first) out << ',';
  obs::write_json_string(out, key);
  out << ':';
  obs::write_json_number(out, value);
}

void write_server_field(std::ostream& out, const char* key,
                        std::uint64_t value, bool first = false) {
  if (!first) out << ',';
  obs::write_json_string(out, key);
  out << ':';
  obs::write_json_number(out, value);
}

}  // namespace

std::string AnalysisService::compose_stats_json(
    const std::vector<obs::MetricSample>& samples,
    const std::vector<WireSlowQuery>& slow) const {
  std::ostringstream out;
  out << "{\"server\":{";
  obs::write_json_string(out, "name");
  out << ':';
  obs::write_json_string(out, config_.self_profile_source);
  write_server_field(out, "uptime_s", uptime_s());
  write_server_field(out, "generation", repo_.generation());
  write_server_field(out, "queries", queries_.value());
  write_server_field(out, "cache_hits", cache_hits_.value());
  write_server_field(out, "coalesced", coalesced_.value());
  write_server_field(out, "computes", computes_.value());
  write_server_field(out, "busy", busy_.value());
  write_server_field(out, "rejected", rejected_.value());
  write_server_field(out, "errors", errors_.value());
  write_server_field(
      out, "inflight",
      static_cast<std::uint64_t>(inflight_.load(std::memory_order_relaxed)));
  write_server_field(out, "max_inflight",
                     static_cast<std::uint64_t>(config_.max_inflight));
  write_server_field(out, "cache_bytes",
                     static_cast<std::uint64_t>(cache_.size_bytes()));
  write_server_field(out, "cache_capacity_bytes",
                     static_cast<std::uint64_t>(config_.cache_capacity_bytes));
  write_server_field(out, "slow_log_threshold_ms",
                     config_.slow_log_threshold_ms);
  write_server_field(out, "slow_log_capacity",
                     static_cast<std::uint64_t>(config_.slow_log_capacity));
  write_server_field(
      out, "self_profile_interval_s",
      static_cast<std::uint64_t>(config_.self_profile_interval_s));
  write_server_field(out, "self_profile_windows", self_profile_windows());
  out << "},\"metrics\":";
  obs::write_metrics_json(out, samples);
  out << ",\"slow_queries\":[";
  bool first = true;
  for (const WireSlowQuery& entry : slow) {
    if (!first) out << ',';
    first = false;
    out << '{';
    write_server_field(out, "request_id", entry.request_id, true);
    out << ',';
    obs::write_json_string(out, "canonical");
    out << ':';
    obs::write_json_string(out, entry.canonical);
    out << ',';
    obs::write_json_string(out, "outcome");
    out << ':';
    obs::write_json_string(out, entry.outcome);
    write_server_field(out, "server_ms", entry.server_ms);
    write_server_field(out, "plan_ms", entry.plan_ms);
    write_server_field(out, "compute_ms", entry.compute_ms);
    write_server_field(out, "serialize_ms", entry.serialize_ms);
    write_server_field(out, "sequence", entry.sequence);
    out << '}';
  }
  out << "]}";
  return out.str();
}

StatsPayload AnalysisService::stats() const {
  StatsPayload payload;
  payload.samples = obs::MetricsRegistry::global().snapshot();
  payload.slow = slow_log_.snapshot();
  payload.json = compose_stats_json(payload.samples, payload.slow);
  return payload;
}

std::string AnalysisService::stats_json() const {
  return compose_stats_json(obs::MetricsRegistry::global().snapshot(),
                            slow_log_.snapshot());
}

std::string AnalysisService::health_json() const {
  std::ostringstream out;
  out << "{\"status\":\"ok\",";
  obs::write_json_string(out, "server");
  out << ':';
  obs::write_json_string(out, config_.self_profile_source);
  write_server_field(out, "protocol_version",
                     static_cast<std::uint64_t>(kProtocolVersion));
  write_server_field(out, "uptime_s", uptime_s());
  write_server_field(out, "generation", repo_.generation());
  write_server_field(
      out, "inflight",
      static_cast<std::uint64_t>(inflight_.load(std::memory_order_relaxed)));
  write_server_field(out, "queries", queries_.value());
  out << '}';
  return out.str();
}

double AnalysisService::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void AnalysisService::housekeeping_tick() {
  (void)refresh();
  if (config_.self_profile_interval_s == 0) return;
  bool due = false;
  {
    ts::MutexLock lock(profile_mutex_);
    const std::int64_t now = now_ns();
    if (now >= next_window_ns_) {
      due = true;
      next_window_ns_ =
          now + static_cast<std::int64_t>(config_.self_profile_interval_s) *
                    1000000000;
    }
  }
  if (due) (void)export_self_profile_window();
}

std::string AnalysisService::export_self_profile_window() {
  std::unique_ptr<obs::MetricsRegistry> delta;
  {
    ts::MutexLock lock(profile_mutex_);
    delta = window_->advance();
  }
  const std::uint64_t seq =
      windows_stored_.fetch_add(1, std::memory_order_relaxed) + 1;
  char tag[16];
  std::snprintf(tag, sizeof(tag), "w%06llu",
                static_cast<unsigned long long>(seq));
  obs::SelfProfileOptions options;
  options.name = config_.self_profile_source + ".self." + tag;
  // Deliberately no thread list: every window then synthesizes the same
  // single "main" thread, so all windows of one server carry
  // digest-identical metadata and `difference` composes any two of them
  // bit-deterministically.
  Experiment window = obs::export_self_profile({}, *delta, options);
  window.set_attribute("cube.self.source", config_.self_profile_source);
  window.set_attribute("cube.self.window", std::to_string(seq));
  window.set_attribute("cube.self.interval_s",
                       std::to_string(config_.self_profile_interval_s));
  return repo_.store(window, RepoFormat::Columnar);
}

bool AnalysisService::refresh() {
  // Pick up other processes' stores FIRST, then fold the index: once
  // enough dead records accumulate it is compacted into one sealed
  // segment (a no-op on legacy repositories and below the dead-record
  // threshold).  Compaction itself replays any records that land in the
  // window after refresh(), and either step bumps the repository
  // generation when the entry list changed.
  const std::uint64_t before = repo_.generation();
  repo_.refresh();
  repo_.compact_if_needed();
  if (repo_.generation() == before) return false;
  plan_epoch_.fetch_add(1, std::memory_order_acq_rel);
  ts::MutexLock lock(plan_mutex_);
  plan_cache_.clear();
  return true;
}

}  // namespace cube::server

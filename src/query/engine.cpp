#include "query/engine.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "io/cube_format.hpp"
#include "lint/lint.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace cube::query {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// A repository file a cache hit will be served from.
struct CachedCube {
  std::filesystem::path path;
  RepoFormat format = RepoFormat::Binary;
};

// Loads go through the repository so blob-backed files resolve against its
// meta/ directory and interner — a series of operands over one metadata
// digest shares a single in-memory instance even when loaded from
// different pool workers.
Experiment read_stored(const ExperimentRepository& repo,
                       const std::filesystem::path& path, RepoFormat format,
                       bool validate) {
  Experiment experiment = repo.load_path(path, format);
  if (validate) lint::require_valid(experiment, path.string());
  return experiment;
}

Experiment apply_op(QueryExpr::Op op,
                    const std::vector<const Experiment*>& operands,
                    const OperatorOptions& options) {
  const std::span<const Experiment* const> span(operands);
  switch (op) {
    case QueryExpr::Op::Diff:
      return difference(*operands[0], *operands[1], options);
    case QueryExpr::Op::Merge:
      return merge(*operands[0], *operands[1], options);
    case QueryExpr::Op::Mean:
      return mean(span, options);
    case QueryExpr::Op::Min:
      return minimum(span, options);
    case QueryExpr::Op::Max:
      return maximum(span, options);
  }
  throw OperationError("unreachable query op");
}

/// How the executor handles one plan node.
enum class Action { LoadOperand, LoadCached, Compute };

}  // namespace

QueryEngine::QueryEngine(QueryOptions options) : options_(options) {
  if (options_.threads == 0) {
    options_.threads = ThreadPool::default_threads();
  }
  if (options_.threads > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(options_.threads);
    pool_ = owned_pool_.get();
  }
}

QueryEngine::QueryEngine(ExperimentRepository& repo, QueryOptions options)
    : QueryEngine(options) {
  repo_ = &repo;
}

QueryEngine::QueryEngine(ExperimentRepository& repo, QueryOptions options,
                         ThreadPool& pool)
    : repo_(&repo), options_(options), pool_(&pool) {
  options_.threads = pool.size();
}

QueryEngine::QueryEngine(const ExperimentEnv& env, QueryOptions options)
    : QueryEngine(options) {
  env_ = &env;
  options_.use_cache = false;
  options_.store_derived = false;
}

QueryResult QueryEngine::run(std::string_view text) {
  return run(*parse_query(text));
}

QueryPlan QueryEngine::plan(const QueryExpr& expr) const {
  return env_ != nullptr ? plan_query(expr, *env_, options_.operators)
                         : plan_query(expr, *repo_, options_.operators);
}

QueryResult QueryEngine::run(const QueryExpr& expr) {
  OBS_SPAN("query.run");
  const auto t_total = Clock::now();
  const auto t_plan = Clock::now();
  obs::Span plan_span("query.plan");
  const QueryPlan query_plan = plan(expr);
  const double plan_ms = ms_since(t_plan);
  plan_span.finish();
  QueryResult result = run_plan(query_plan);
  result.stats.plan_ms = plan_ms;
  result.stats.total_ms = ms_since(t_total);
  return result;
}

QueryResult QueryEngine::run_plan(const QueryPlan& plan) {
  const auto t_total = Clock::now();
  QueryStats stats;
  stats.threads_used = options_.threads;
  stats.plan_nodes = plan.nodes.size();
  stats.cse_reused = plan.cse_reused;

  // Snapshot the cached cubes (repository entries carrying a cache key).
  std::map<std::string, CachedCube> cache;
  if (options_.use_cache) {
    for (const RepoEntry& entry : repo_->entries_snapshot()) {
      const auto it = entry.attributes.find(kCacheKeyAttribute);
      if (it != entry.attributes.end()) {
        cache.emplace(it->second,
                      CachedCube{repo_->directory() / entry.file,
                                 entry.format});
      }
    }
  }

  // Decide per-node actions top-down: a cached apply node becomes a leaf
  // and its operands are never touched (that is where warm queries win).
  const std::size_t n = plan.nodes.size();
  std::vector<Action> action(n, Action::LoadOperand);
  std::vector<CachedCube> cached(n);
  std::vector<char> needed(n, 0);
  std::vector<std::size_t> stack{plan.root};
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    if (needed[i]) continue;
    needed[i] = 1;
    const PlanNode& node = plan.nodes[i];
    if (node.kind == PlanNode::Kind::Load) {
      action[i] = Action::LoadOperand;
      continue;
    }
    const auto hit = cache.find(digest_hex(node.key));
    if (hit != cache.end()) {
      action[i] = Action::LoadCached;
      cached[i] = hit->second;
      continue;
    }
    action[i] = Action::Compute;
    for (const std::size_t child : node.args) stack.push_back(child);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (needed[i]) ++stats.nodes_executed;
  }

  // Transitive leaf operand digests per node, stamped onto stored derived
  // cubes (kCacheOperandsAttribute) so digest-keyed caches — the daemon's
  // shared result cache — can be linted for staleness.  Computed from the
  // full plan: cache pruning hides subtrees from execution, not from the
  // result's provenance.
  std::vector<std::vector<std::uint64_t>> leaves;
  if (options_.store_derived) {
    leaves.resize(n);
    for (std::size_t i = 0; i < n; ++i) {  // topological: children first
      const PlanNode& node = plan.nodes[i];
      if (node.kind == PlanNode::Kind::Load) {
        leaves[i].push_back(node.operand.digest);
        continue;
      }
      for (const std::size_t child : node.args) {
        leaves[i].insert(leaves[i].end(), leaves[child].begin(),
                         leaves[child].end());
      }
      std::sort(leaves[i].begin(), leaves[i].end());
      leaves[i].erase(std::unique(leaves[i].begin(), leaves[i].end()),
                      leaves[i].end());
    }
  }
  const auto operands_attr = [&](std::size_t i) {
    std::string out;
    for (const std::uint64_t digest : leaves[i]) {
      if (!out.empty()) out += ' ';
      out += digest_hex(digest);
    }
    return out;
  };

  // --- execute ------------------------------------------------------------
  const auto t_exec = Clock::now();
  OperatorOptions op_options = options_.operators;
  // Kernel counters land in a per-run registry, so concurrent engines (and
  // runs) read isolated values; absorbed into the global registry at the
  // end for the process-wide self-profile.
  obs::MetricsRegistry run_metrics;
  op_options.metrics = &run_metrics;
  if (pool_) {
    ThreadPool* pool = pool_;
    op_options.parallel_for =
        [pool](std::size_t chunks,
               const std::function<void(std::size_t)>& body) {
          pool->parallel_for(chunks, body);
        };
  }

  std::vector<std::shared_ptr<const Experiment>> results(n);
  std::mutex mutex;

  const auto eval_node = [&](std::size_t i) {
    const PlanNode& node = plan.nodes[i];
    switch (action[i]) {
      case Action::LoadOperand: {
        if (node.operand.borrowed != nullptr) {
          // Aliases the caller's experiment with no owner: use_count() is
          // 0, so the root hand-off below clones instead of moving it.
          results[i] = std::shared_ptr<const Experiment>(
              std::shared_ptr<const Experiment>(), node.operand.borrowed);
          break;
        }
        OBS_SPAN("query.load");
        const auto t0 = Clock::now();
        auto e = std::make_shared<Experiment>(
            read_stored(*repo_, node.operand.path, node.operand.format,
                        options_.validate_loads));
        std::lock_guard<std::mutex> lock(mutex);
        results[i] = std::move(e);
        ++stats.operands_loaded;
        stats.bytes_loaded += node.operand.bytes;
        stats.load_ms += ms_since(t0);
        break;
      }
      case Action::LoadCached: {
        OBS_SPAN("query.load", "cache-hit");
        const auto t0 = Clock::now();
        std::error_code ec;
        const std::uintmax_t size =
            std::filesystem::file_size(cached[i].path, ec);
        auto e = std::make_shared<Experiment>(
            read_stored(*repo_, cached[i].path, cached[i].format,
                        options_.validate_loads));
        std::lock_guard<std::mutex> lock(mutex);
        results[i] = std::move(e);
        ++stats.cache_hits;
        if (!ec) stats.bytes_loaded += size;
        stats.load_ms += ms_since(t0);
        break;
      }
      case Action::Compute: {
        OBS_SPAN("query.compute", options_.use_cache ? "cache-miss" : nullptr);
        const auto t0 = Clock::now();
        std::vector<const Experiment*> operands;
        operands.reserve(node.args.size());
        for (const std::size_t child : node.args) {
          operands.push_back(results[child].get());
        }
        Experiment out = apply_op(node.op, operands, op_options);
        if (options_.store_derived) {
          // The result self-describes its cache identity; the attributes
          // travel into the repository index, where the next plan's
          // cache snapshot finds them.
          out.set_attribute(kCacheKeyAttribute, digest_hex(node.key));
          out.set_attribute(kCacheExprAttribute, node.canonical);
          out.set_attribute(kCacheOperandsAttribute, operands_attr(i));
        }
        auto e = std::make_shared<Experiment>(std::move(out));
        const double eval_ms = ms_since(t0);
        std::lock_guard<std::mutex> lock(mutex);
        if (options_.store_derived) {
          repo_->store(*e, RepoFormat::Columnar);
        }
        results[i] = std::move(e);
        ++stats.nodes_evaluated;
        if (options_.use_cache) ++stats.cache_misses;
        stats.eval_ms += eval_ms;
        break;
      }
    }
  };

  if (!pool_) {
    // Sequential: plan order is topological (children precede parents).
    for (std::size_t i = 0; i < n; ++i) {
      if (needed[i]) eval_node(i);
    }
  } else {
    // Dependency-counting DAG walk: a node is submitted once every needed
    // child finished; the caller waits for the last needed node (or, on
    // failure, for in-flight tasks to drain).
    std::vector<std::vector<std::size_t>> parents(n);
    std::vector<std::size_t> pending(n, 0);
    std::size_t total_needed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!needed[i]) continue;
      ++total_needed;
      if (action[i] == Action::Compute) {
        for (const std::size_t child : plan.nodes[i].args) {
          parents[child].push_back(i);
        }
        pending[i] = plan.nodes[i].args.size();
      }
    }

    std::condition_variable done_cv;
    std::size_t outstanding = 0;
    std::size_t finished = 0;
    std::exception_ptr error;
    bool abort = false;

    std::function<void(std::size_t)> launch = [&](std::size_t i) {
      pool_->submit([&, i] {
        bool ok = true;
        try {
          {
            std::lock_guard<std::mutex> lock(mutex);
            ok = !abort;
          }
          if (ok) eval_node(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!error) error = std::current_exception();
          abort = true;
          ok = false;
        }
        std::vector<std::size_t> ready;
        {
          std::lock_guard<std::mutex> lock(mutex);
          --outstanding;
          ++finished;
          if (ok && !abort) {
            for (const std::size_t p : parents[i]) {
              if (--pending[p] == 0) ready.push_back(p);
            }
          }
          outstanding += ready.size();
          if (outstanding == 0) done_cv.notify_all();
        }
        for (const std::size_t p : ready) launch(p);
      });
    };

    std::vector<std::size_t> roots_ready;
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (std::size_t i = 0; i < n; ++i) {
        if (needed[i] &&
            (action[i] != Action::Compute || pending[i] == 0)) {
          roots_ready.push_back(i);
        }
      }
      outstanding += roots_ready.size();
    }
    for (const std::size_t i : roots_ready) launch(i);
    {
      std::unique_lock<std::mutex> lock(mutex);
      done_cv.wait(lock, [&] {
        return outstanding == 0 && (finished == total_needed || abort);
      });
      if (error) std::rethrow_exception(error);
    }
  }

  stats.exec_ms = ms_since(t_exec);
  stats.total_ms = ms_since(t_total);
  stats.kernel_identity_dense_cells =
      run_metrics.counter(kernel_counters::kIdentityDenseCells).value();
  stats.kernel_remap_dense_cells =
      run_metrics.counter(kernel_counters::kRemapDenseCells).value();
  stats.kernel_identity_sparse_nnz =
      run_metrics.counter(kernel_counters::kIdentitySparseNnz).value();
  stats.kernel_remap_sparse_nnz =
      run_metrics.counter(kernel_counters::kRemapSparseNnz).value();
  stats.kernel_chunks = run_metrics.counter(kernel_counters::kChunks).value();
  stats.kernel_applications =
      run_metrics.counter(kernel_counters::kApplications).value();
  stats.kernel_batch_tiles =
      run_metrics.counter(kernel_counters::kBatchTiles).value();
  stats.kernel_batch_width =
      run_metrics.counter(kernel_counters::kBatchWidth).value();

  // Feed the process-wide registry: the run's kernel counters plus the
  // engine's own tallies, under stable query.* names.
  run_metrics.counter("query.runs").add(1);
  run_metrics.counter("query.cache.hits").add(stats.cache_hits);
  run_metrics.counter("query.cache.misses").add(stats.cache_misses);
  run_metrics.counter("query.operands_loaded").add(stats.operands_loaded);
  run_metrics.counter("query.nodes_evaluated").add(stats.nodes_evaluated);
  run_metrics.counter("query.bytes_loaded", obs::SampleUnit::Bytes)
      .add(stats.bytes_loaded);
  obs::MetricsRegistry::global().absorb(run_metrics);

  // A root this run solely owns was created non-const by make_shared and
  // is moved out; a shared one, or a borrowed leaf (use_count() 0), is
  // cloned so the caller's experiment stays intact.
  std::shared_ptr<const Experiment> root = std::move(results[plan.root]);
  results.clear();
  QueryResult result{root.use_count() == 1
                         ? std::move(const_cast<Experiment&>(*root))
                         : root->clone(),
                     stats, plan.nodes[plan.root].canonical};
  return result;
}

}  // namespace cube::query

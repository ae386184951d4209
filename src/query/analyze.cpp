#include "query/analyze.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "algebra/batch.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "model/metric.hpp"
#include "query/plan_lint.hpp"

namespace cube::query {

namespace {

using lint::DiagnosticSink;

constexpr std::uint64_t kDenseCellBytes = sizeof(Severity);
constexpr std::uint64_t kSparseCellBytes =
    sizeof(std::uint64_t) + sizeof(Severity);

/// Per-node original/derived classification, decidable from the index:
/// an entry whose attributes mark it derived (or that IS a cached cube)
/// is derived, an operator application always is.
enum class PlanKind { Original, Derived, Unknown };

std::uint64_t dense_bytes(std::uint64_t cells) {
  return cells * kDenseCellBytes;
}

/// Geometry and representation of one node, filled bottom-up.
struct NodeState {
  PlanKind kind = PlanKind::Unknown;
};

/// Zero-severity wrapper over stored metadata: integration only reads the
/// metadata, and a sparse store over it allocates nothing per cell — this
/// is what lets the analyzer run integrate_metadata at plan time without
/// touching severity.
Experiment metadata_probe(std::shared_ptr<const Metadata> metadata) {
  return Experiment(std::move(metadata), StorageKind::Sparse);
}

/// Traversal count of one REMAPPED dense operand, replicating the
/// executor's kernel counters exactly.  The sweep visits each source
/// (metric, cnode) row once per tile its result row intersects, counting
/// the operand's thread width each time — so a row straddling a tile or
/// chunk boundary is counted twice.  The grid is deterministic: [0, cells)
/// split into num_cell_chunks contiguous chunks, each swept in kTileCells
/// tiles from its own lower bound.
std::uint64_t remap_dense_traversal(const OperandMapping& mapping,
                                    std::size_t src_metrics,
                                    std::size_t src_cnodes,
                                    std::size_t src_threads,
                                    std::size_t out_cnodes,
                                    std::size_t out_threads,
                                    std::uint64_t out_cells) {
  if (out_cells == 0) return 0;
  const std::uint64_t chunks = batch::num_cell_chunks(out_cells);
  const auto chunk_lo = [&](std::uint64_t k) { return k * out_cells / chunks; };
  const auto chunk_of = [&](std::uint64_t x) {
    std::uint64_t k = x * chunks / out_cells;
    while (k + 1 < chunks && chunk_lo(k + 1) <= x) ++k;
    while (k > 0 && chunk_lo(k) > x) --k;
    return k;
  };
  std::uint64_t total = 0;
  for (std::size_t m = 0; m < src_metrics; ++m) {
    const MetricIndex om = mapping.metric_map[m];
    if (om == kNoIndex) continue;  // merge ownership masking
    for (std::size_t c = 0; c < src_cnodes; ++c) {
      const std::uint64_t lo =
          (static_cast<std::uint64_t>(om) * out_cnodes +
           mapping.cnode_map[c]) *
          out_threads;
      const std::uint64_t hi = lo + out_threads;
      std::uint64_t intervals = 0;
      for (std::uint64_t k = chunk_of(lo); k < chunks && chunk_lo(k) < hi;
           ++k) {
        const std::uint64_t clo = chunk_lo(k);
        const std::uint64_t chi = std::min(chunk_lo(k + 1), out_cells);
        const std::uint64_t olo = std::max(lo, clo);
        const std::uint64_t ohi = std::min(hi, chi);
        if (ohi <= olo) continue;  // empty or non-overlapping chunk
        intervals += (ohi - 1 - clo) / batch::kTileCells -
                     (olo - clo) / batch::kTileCells + 1;
      }
      total += intervals * src_threads;
    }
  }
  return total;
}

/// The (rank, thread id) set of a metadata's system dimension.
std::set<std::pair<long, long>> thread_shape(const Metadata& md) {
  std::set<std::pair<long, long>> shape;
  for (const auto& t : md.threads()) {
    shape.emplace(t->rank(), t->thread_id());
  }
  return shape;
}

}  // namespace

PlanAnalysis analyze_plan(const QueryPlan& plan,
                          const ExperimentRepository& repo,
                          DiagnosticSink& sink,
                          const AnalyzeOptions& options) {
  PlanAnalysis analysis;
  analysis.budget_bytes = options.budget_bytes;
  const std::size_t n = plan.nodes.size();
  analysis.nodes.resize(n);
  std::vector<NodeState> state(n);

  // Index attributes (entry kind, cached cubes) come from one snapshot —
  // the same source the executor's cache pruning reads.
  std::map<std::string, std::string> entry_kind;  // id -> "cube::kind"
  std::map<std::string, std::pair<std::filesystem::path, std::uintmax_t>>
      cached_files;  // cache key hex -> (file, size)
  for (const RepoEntry& entry : repo.entries_snapshot()) {
    const auto kind = entry.attributes.find("cube::kind");
    if (kind != entry.attributes.end()) {
      entry_kind.emplace(entry.id, kind->second);
    }
    if (!options.use_cache) continue;
    const auto key = entry.attributes.find(kCacheKeyAttribute);
    if (key != entry.attributes.end()) {
      std::error_code ec;
      const std::filesystem::path path = repo.directory() / entry.file;
      std::uintmax_t size = std::filesystem::file_size(path, ec);
      if (ec) size = 0;
      cached_files.emplace(key->second, std::make_pair(path, size));
    }
  }

  const MetadataResolver resolver = repo.resolver();

  // --- bottom-up: geometry, compatibility, per-node cost ------------------
  for (std::size_t i = 0; i < n; ++i) {
    const PlanNode& node = plan.nodes[i];
    NodeCost& cost = analysis.nodes[i];

    if (node.kind == PlanNode::Kind::Load) {
      cost.bytes_loaded = static_cast<std::uint64_t>(node.operand.bytes);
      cost.bytes_faulted = cost.bytes_loaded;
      const auto kind_attr = entry_kind.find(node.operand.id);
      state[i].kind = kind_attr != entry_kind.end() &&
                              kind_attr->second == "derived"
                          ? PlanKind::Derived
                          : PlanKind::Original;

      if (node.operand.meta_digest == 0) {
        // Legacy inline-metadata entry: geometry requires parsing the
        // experiment file, which the analyzer refuses to do.
        sink.warning("plan.opaque-operand", node.canonical,
                     "operand '" + node.operand.id +
                         "' carries inline metadata; its geometry is not "
                         "statically known",
                     "run `cube_repo migrate` to rewrite the entry "
                     "blob-backed, making it analyzable");
        cost.exact = false;
        continue;
      }
      try {
        cost.metadata = resolver(node.operand.meta_digest);
      } catch (const Error&) {
        cost.metadata = nullptr;
      }
      if (!cost.metadata) {
        sink.warning("plan.opaque-operand", node.canonical,
                     "operand '" + node.operand.id +
                         "' references metadata blob " +
                         digest_hex(node.operand.meta_digest) +
                         " which did not resolve",
                     "the load would fail at runtime too; check the "
                     "repository's meta/ shards");
        cost.exact = false;
        continue;
      }
      cost.geometry_known = true;
      cost.metrics = cost.metadata->num_metrics();
      cost.cnodes = cost.metadata->num_cnodes();
      cost.threads = cost.metadata->num_threads();
      cost.cells = static_cast<std::uint64_t>(cost.metrics) * cost.cnodes *
                   cost.threads;
      // In-memory representation: XML/Binary operands load dense (the
      // engine's read path defaults StorageKind::Dense); columnar
      // operands mmap their blob and keep its kind.
      cost.storage = StorageKind::Dense;
      cost.nnz = cost.cells;
      cost.result_bytes = dense_bytes(cost.cells);
      if (node.operand.format == RepoFormat::Columnar &&
          node.operand.sev_digest != 0) {
        std::optional<SevBlobStat> stat;
        try {
          stat = repo.stat_sev_blob(node.operand.sev_digest);
        } catch (const Error& e) {
          sink.warning("plan.opaque-operand", node.canonical,
                       std::string("severity blob header unreadable: ") +
                           e.what(),
                       "treating the operand as dense for cost purposes");
        }
        if (stat) {
          cost.storage = stat->kind;
          cost.nnz = stat->kind == StorageKind::Sparse ? stat->entries
                                                       : cost.cells;
          cost.result_bytes = stat->payload_bytes;
          cost.bytes_faulted += stat->payload_bytes;
        } else {
          cost.exact = false;
        }
      }
      continue;
    }

    // ---- operator application ------------------------------------------
    state[i].kind = PlanKind::Derived;
    bool all_known = true;
    for (const std::size_t child : node.args) {
      if (!analysis.nodes[child].geometry_known) all_known = false;
      if (!analysis.nodes[child].exact) cost.exact = false;
    }

    // Unit conflicts make integration undefined — the exact check
    // lint_compatibility runs at load time, promoted to plan time over
    // stored metadata, with the offending sub-expression as location.
    bool unit_conflict = false;
    {
      std::map<std::string, std::pair<Unit, std::size_t>> units;
      for (std::size_t a = 0; a < node.args.size(); ++a) {
        const NodeCost& child = analysis.nodes[node.args[a]];
        if (!child.metadata) continue;
        for (const auto& m : child.metadata->metrics()) {
          const auto [it, fresh] = units.emplace(
              m->unique_name(), std::make_pair(m->unit(), a));
          if (!fresh && it->second.first != m->unit()) {
            unit_conflict = true;
            sink.error(
                "plan.metric-unit",
                plan.nodes[node.args[a]].canonical,
                "operand #" + std::to_string(a) + " measures metric '" +
                    m->unique_name() + "' in '" +
                    std::string(unit_name(m->unit())) + "' but operand #" +
                    std::to_string(it->second.second) + " measures it in '" +
                    std::string(unit_name(it->second.first)) + "'",
                "metadata integration cannot merge metrics that share a "
                "unique name but differ in unit; the query would fail at "
                "evaluation time");
          }
        }
      }
    }
    if (unit_conflict) {
      analysis.compatible = false;
      cost.exact = false;
      continue;
    }

    // Per-operand mappings into the integrated cell space; stays empty
    // when any operand's geometry is unknown.
    std::vector<OperandMapping> mappings;
    if (all_known) {
      // Integrate the children's metadata exactly as the operator will —
      // over zero-severity probes, so the structural merge (or its digest
      // short-circuit) runs without any severity in sight.
      std::vector<Experiment> probes;
      std::vector<const Experiment*> operand_ptrs;
      probes.reserve(node.args.size());
      operand_ptrs.reserve(node.args.size());
      for (const std::size_t child : node.args) {
        probes.push_back(metadata_probe(analysis.nodes[child].metadata));
      }
      for (const Experiment& p : probes) operand_ptrs.push_back(&p);
      try {
        IntegrationResult integration = integrate_metadata(
            std::span<const Experiment* const>(operand_ptrs),
            options.operators.integration);
        cost.metadata = integration.metadata;
        mappings = std::move(integration.mappings);
      } catch (const Error& e) {
        sink.error("plan.integration-failed", node.canonical,
                   std::string("metadata integration rejects the "
                               "operands: ") +
                       e.what(),
                   "the query would fail at evaluation time");
        analysis.compatible = false;
        cost.exact = false;
        continue;
      }
      cost.geometry_known = true;
      cost.metrics = cost.metadata->num_metrics();
      cost.cnodes = cost.metadata->num_cnodes();
      cost.threads = cost.metadata->num_threads();
      cost.cells = static_cast<std::uint64_t>(cost.metrics) * cost.cnodes *
                   cost.threads;

      // Differing system shapes zero-extend — legal but usually a
      // selector mistake (mirrors compat.thread-shape).
      for (std::size_t a = 1; a < node.args.size(); ++a) {
        const auto& first = *analysis.nodes[node.args[0]].metadata;
        const auto& other = *analysis.nodes[node.args[a]].metadata;
        if (thread_shape(other) != thread_shape(first)) {
          sink.note("plan.thread-shape", plan.nodes[node.args[a]].canonical,
                    "system dimension differs from operand #0's "
                    "(different (rank, thread id) sets)",
                    "tuples absent from an operand contribute zero to "
                    "element-wise operators");
          break;
        }
      }
    } else {
      cost.exact = false;
    }

    bool any_original = false;
    bool any_derived = false;
    for (const std::size_t child : node.args) {
      (state[child].kind == PlanKind::Derived ? any_derived : any_original) =
          true;
    }
    if (any_original && any_derived) {
      sink.note("plan.mixed-kind", node.canonical,
                "operands mix original and derived experiments",
                "differences already encode a comparison; aggregating "
                "them with measured runs is usually unintended");
    }

    // Cost: per operand, the sweep visits what batch::classify_operand
    // says — its stored non-zeros (kept sparse), its own cells (borrowed),
    // or each source row once per tile it straddles (gathered rows,
    // replicated by remap_dense_traversal()).  A merge reads each operand
    // through its owner-masked mapping, exactly as the executor does; the
    // prediction stays exact unless a kept-sparse operand loses metrics
    // to the mask, whose non-zeros per metric no header records.
    if (node.op == QueryExpr::Op::Merge && !mappings.empty()) {
      mappings = merge_owner_mappings(mappings, cost.metrics);
    }
    for (std::size_t a = 0; a < node.args.size(); ++a) {
      const NodeCost& c = analysis.nodes[node.args[a]];
      const bool identity = a >= mappings.size() || mappings[a].identity();
      switch (batch::classify_operand(c.storage, c.nnz, c.cells, identity)) {
        case batch::Access::Sparse:
          cost.cells_traversed += c.nnz;
          if (a < mappings.size() &&
              std::find(mappings[a].metric_map.begin(),
                        mappings[a].metric_map.end(),
                        kNoIndex) != mappings[a].metric_map.end()) {
            cost.exact = false;
          }
          break;
        case batch::Access::Rows:
          cost.cells_traversed += remap_dense_traversal(
              mappings[a], c.metrics, c.cnodes, c.threads, cost.cnodes,
              cost.threads, cost.cells);
          break;
        case batch::Access::Borrow:
          cost.cells_traversed += c.cells;
          break;
      }
    }
    cost.storage = options.operators.storage;
    if (cost.geometry_known) {
      if (cost.storage == StorageKind::Dense) {
        cost.nnz = cost.cells;
        cost.result_bytes = dense_bytes(cost.cells);
      } else {
        // Sparse results hold at most min(cells, sum of operand nnz)
        // entries — an upper bound, not a prediction.
        std::uint64_t nnz_bound = 0;
        for (const std::size_t child : node.args) {
          nnz_bound += analysis.nodes[child].nnz;
        }
        cost.nnz = std::min(cost.cells, nnz_bound);
        cost.result_bytes = cost.nnz * kSparseCellBytes;
        cost.exact = false;
      }
    }
  }

  // --- DAG totals under the executor's scheduling -------------------------
  // Every needed node's result shared_ptr lives until the whole DAG
  // finishes, so peak resident is the SUM over executed nodes.  The warm
  // pass replays the executor's cache pruning: a cached apply node
  // becomes a leaf (loaded from its stored cube) and its subtree never
  // runs.
  const auto total = [&](bool warm) {
    CostEstimate est;
    std::vector<char> needed(n, 0);
    std::vector<std::size_t> stack{plan.root};
    while (!stack.empty()) {
      const std::size_t i = stack.back();
      stack.pop_back();
      if (needed[i]) continue;
      needed[i] = 1;
      const PlanNode& node = plan.nodes[i];
      const NodeCost& cost = analysis.nodes[i];
      ++est.nodes_executed;
      if (!cost.exact) est.exact = false;
      if (node.kind == PlanNode::Kind::Load) {
        ++est.operands_loaded;
        est.bytes_loaded += cost.bytes_loaded;
        est.bytes_faulted += cost.bytes_faulted;
        est.peak_resident_bytes += cost.result_bytes;
        continue;
      }
      const auto hit = warm ? cached_files.find(digest_hex(node.key))
                            : cached_files.end();
      if (hit != cached_files.end()) {
        analysis.nodes[i].cached = true;
        ++est.cache_hits;
        est.bytes_loaded += hit->second.second;
        est.bytes_faulted += hit->second.second;
        // Cached cubes load as columnar blobs in the stored result's
        // storage kind (OperatorOptions::storage, dense by default);
        // counted dense.
        est.peak_resident_bytes += dense_bytes(cost.cells);
        continue;
      }
      ++est.nodes_evaluated;
      est.cells_traversed += cost.cells_traversed;
      est.intermediate_bytes += cost.result_bytes;
      est.peak_resident_bytes += cost.result_bytes;
      for (const std::size_t child : node.args) stack.push_back(child);
    }
    return est;
  };

  analysis.cold = total(false);
  analysis.warm = options.use_cache ? total(true) : analysis.cold;
  analysis.exact = analysis.warm.exact && analysis.cold.exact;

  const CostEstimate& enforced =
      options.use_cache ? analysis.warm : analysis.cold;
  if (options.budget_bytes != 0 &&
      enforced.peak_resident_bytes > options.budget_bytes) {
    analysis.over_budget = true;
    sink.error(
        "cost.over-budget", plan.nodes[plan.root].canonical,
        "predicted peak resident memory " +
            std::to_string(enforced.peak_resident_bytes) +
            " bytes exceeds the budget of " +
            std::to_string(options.budget_bytes) + " bytes",
        "narrow the selector, lower the operand count, or raise the "
        "budget");
  }

  sink.note(
      "cost.summary", plan.nodes[plan.root].canonical,
      "cold: " + std::to_string(analysis.cold.cells_traversed) +
          " cells traversed, " + std::to_string(analysis.cold.bytes_faulted) +
          " bytes faulted, peak resident " +
          std::to_string(analysis.cold.peak_resident_bytes) +
          " bytes; warm: " + std::to_string(analysis.warm.cache_hits) +
          " cache hit(s), peak resident " +
          std::to_string(analysis.warm.peak_resident_bytes) + " bytes" +
          (analysis.exact ? "" : " (estimates; plan has opaque operands, "
                                 "owner-masked sparse merges, or sparse "
                                 "results)"));

  if (options.run_plan_lint) lint_plan(plan, sink);
  return analysis;
}

}  // namespace cube::query

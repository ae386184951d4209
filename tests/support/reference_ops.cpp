#include "support/reference_ops.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "algebra/batch.hpp"
#include "algebra/integration.hpp"
#include "common/error.hpp"

namespace cube::reference {

namespace {

Experiment make_result(const IntegrationResult& integration,
                       const OperatorOptions& options) {
  return Experiment(integration.metadata, options.storage);
}

/// Scatters operand `op`'s severity into `out` through its index mapping,
/// scaled by `factor`.  Only non-zero source values are touched, so sparse
/// operands cost what they contain.  Only output cells whose integrated
/// metric index falls in [metric_lo, metric_hi) are written, so disjoint
/// row ranges can be scattered concurrently into a dense store.
void scatter_scaled(const Experiment& source, const OperandMapping& mapping,
                    double factor, Experiment& out, MetricIndex metric_lo,
                    MetricIndex metric_hi) {
  const Metadata& md = source.metadata();
  const SeverityStore& sev = source.severity();
  for (MetricIndex m = 0; m < md.num_metrics(); ++m) {
    const MetricIndex om = mapping.metric_map[m];
    if (om < metric_lo || om >= metric_hi) continue;
    for (CnodeIndex c = 0; c < md.num_cnodes(); ++c) {
      const CnodeIndex oc = mapping.cnode_map[c];
      for (ThreadIndex t = 0; t < md.num_threads(); ++t) {
        const Severity v = sev.get(m, c, t);
        if (v != 0.0) {
          out.severity().add(om, oc, mapping.thread_map[t], factor * v);
        }
      }
    }
  }
}

/// Runs body(metric_lo, metric_hi) over a partition of [0, metrics).
/// Sequential (one chunk) unless `options.parallel_for` is set and the
/// result store allows concurrent disjoint writes (dense).
void run_row_chunked(
    const OperatorOptions& options, std::size_t metrics,
    const std::function<void(MetricIndex, MetricIndex)>& body) {
  if (!options.parallel_for || options.storage != StorageKind::Dense ||
      metrics < 2) {
    body(0, metrics);
    return;
  }
  const std::size_t chunks = std::min(metrics, batch::kMaxCellChunks);
  options.parallel_for(chunks, [&](std::size_t k) {
    const MetricIndex lo = k * metrics / chunks;
    const MetricIndex hi = (k + 1) * metrics / chunks;
    if (lo < hi) body(lo, hi);
  });
}

void reference_reduce_extremum(std::span<const Experiment* const> operands,
                               const IntegrationResult& integration,
                               const OperatorOptions& options, bool take_min,
                               Experiment& out) {
  const Metadata& md = out.metadata();
  const std::size_t plane = md.num_cnodes() * md.num_threads();

  run_row_chunked(options, md.num_metrics(), [&](MetricIndex lo,
                                                 MetricIndex hi) {
    const std::size_t cells = (hi - lo) * plane;
    std::vector<Severity> acc(cells, 0.0);
    std::vector<Severity> cur(cells);
    for (std::size_t op = 0; op < operands.size(); ++op) {
      // Materialize this operand's extension over the chunk; cells the
      // operand does not define stay zero and participate in the
      // reduction as zero (the extension rule).  Coalescing source cells
      // accumulate, exactly as they do through SeverityStore::add.
      std::fill(cur.begin(), cur.end(), 0.0);
      const Metadata& smd = operands[op]->metadata();
      const SeverityStore& sev = operands[op]->severity();
      const OperandMapping& mapping = integration.mappings[op];
      for (MetricIndex m = 0; m < smd.num_metrics(); ++m) {
        const MetricIndex om = mapping.metric_map[m];
        if (om < lo || om >= hi) continue;
        for (CnodeIndex c = 0; c < smd.num_cnodes(); ++c) {
          const CnodeIndex oc = mapping.cnode_map[c];
          for (ThreadIndex t = 0; t < smd.num_threads(); ++t) {
            const Severity v = sev.get(m, c, t);
            if (v != 0.0) {
              cur[(om - lo) * plane + oc * md.num_threads() +
                  mapping.thread_map[t]] += v;
            }
          }
        }
      }
      for (std::size_t i = 0; i < cells; ++i) {
        acc[i] = op == 0 ? cur[i]
                         : (take_min ? std::min(acc[i], cur[i])
                                     : std::max(acc[i], cur[i]));
      }
    }
    for (MetricIndex m = lo; m < hi; ++m) {
      for (CnodeIndex c = 0; c < md.num_cnodes(); ++c) {
        for (ThreadIndex t = 0; t < md.num_threads(); ++t) {
          const Severity v =
              acc[(m - lo) * plane + c * md.num_threads() + t];
          if (v != 0.0) out.severity().set(m, c, t, v);
        }
      }
    }
  });
}

Experiment reduce_extremum(std::span<const Experiment* const> operands,
                           const OperatorOptions& options, bool take_min) {
  if (operands.empty()) {
    throw OperationError("reference min/max requires >= 1 operand");
  }
  const IntegrationResult integration =
      integrate_metadata(operands, options.integration);
  Experiment out = make_result(integration, options);
  reference_reduce_extremum(operands, integration, options, take_min, out);
  return out;
}

// The per-cell folds of the statistics operators, written against an
// accessor at(r) -> r-th operand's zero-extended value.  Accumulation order
// is operand order, as in the tile engine's folds.

template <typename At>
double cell_mean(const At& at, std::size_t n) {
  Severity sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) sum += at(r);
  return sum / static_cast<double>(n);
}

template <typename At>
double cell_stddev(const At& at, std::size_t n) {
  const double mu = cell_mean(at, n);
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) acc += (at(r) - mu) * (at(r) - mu);
  return std::sqrt(acc / static_cast<double>(n));
}

/// Reference reduction: materializes the extended severities per cell
/// through the virtual store interface — coalescing source cells
/// accumulate — and folds each cell's contiguous value vector.
template <typename Fold>
void reference_fold_series(std::span<const Experiment* const> operands,
                           const IntegrationResult& integration,
                           Experiment& out, const Fold& fold) {
  const Metadata& md = out.metadata();
  const std::size_t volume =
      md.num_metrics() * md.num_cnodes() * md.num_threads();
  const auto at = [&md](MetricIndex m, CnodeIndex c, ThreadIndex t) {
    return (m * md.num_cnodes() + c) * md.num_threads() + t;
  };

  // values[cell * N + op]
  const std::size_t n = operands.size();
  std::vector<Severity> values(volume * n, 0.0);
  for (std::size_t op = 0; op < n; ++op) {
    const Experiment& source = *operands[op];
    const OperandMapping& mapping = integration.mappings[op];
    const Metadata& smd = source.metadata();
    for (MetricIndex m = 0; m < smd.num_metrics(); ++m) {
      for (CnodeIndex c = 0; c < smd.num_cnodes(); ++c) {
        for (ThreadIndex t = 0; t < smd.num_threads(); ++t) {
          const Severity v = source.severity().get(m, c, t);
          if (v != 0.0) {
            values[at(mapping.metric_map[m], mapping.cnode_map[c],
                      mapping.thread_map[t]) *
                       n +
                   op] += v;
          }
        }
      }
    }
  }

  for (MetricIndex m = 0; m < md.num_metrics(); ++m) {
    for (CnodeIndex c = 0; c < md.num_cnodes(); ++c) {
      for (ThreadIndex t = 0; t < md.num_threads(); ++t) {
        const Severity* cell = &values[at(m, c, t) * n];
        const auto get = [cell](std::size_t r) { return cell[r]; };
        const Severity v = fold(get, n);
        if (v != 0.0) out.severity().set(m, c, t, v);
      }
    }
  }
}

template <typename Fold>
Experiment fold_series(std::span<const Experiment* const> operands,
                       const OperatorOptions& options, const Fold& fold) {
  if (operands.size() < 2) {
    throw OperationError("reference statistics require >= 2 operands");
  }
  const IntegrationResult integration =
      integrate_metadata(operands, options.integration);
  Experiment out = make_result(integration, options);
  reference_fold_series(operands, integration, out, fold);
  return out;
}

}  // namespace

Experiment difference(const Experiment& a, const Experiment& b,
                      const OperatorOptions& options) {
  const IntegrationResult integration =
      integrate_metadata(a, b, options.integration);
  Experiment out = make_result(integration, options);
  run_row_chunked(options, out.metadata().num_metrics(),
                  [&](MetricIndex lo, MetricIndex hi) {
                    scatter_scaled(a, integration.mappings[0], 1.0, out, lo,
                                   hi);
                    scatter_scaled(b, integration.mappings[1], -1.0, out, lo,
                                   hi);
                  });
  return out;
}

Experiment merge(const Experiment& a, const Experiment& b,
                 const OperatorOptions& options) {
  const Experiment* ops[] = {&a, &b};
  const IntegrationResult integration =
      integrate_metadata(a, b, options.integration);
  Experiment out = make_result(integration, options);

  // A metric of the integrated set is owned by the first operand that
  // provides it; only the owner contributes its severities.
  const std::size_t num_out_metrics = out.metadata().num_metrics();
  std::vector<std::size_t> owner(num_out_metrics, kNoIndex);
  for (std::size_t op = 0; op < 2; ++op) {
    for (const MetricIndex om : integration.mappings[op].metric_map) {
      if (owner[om] == kNoIndex) owner[om] = op;
    }
  }

  run_row_chunked(options, num_out_metrics, [&](MetricIndex lo,
                                                MetricIndex hi) {
    for (std::size_t op = 0; op < 2; ++op) {
      const Experiment& source = *ops[op];
      const OperandMapping& mapping = integration.mappings[op];
      const Metadata& md = source.metadata();
      for (MetricIndex m = 0; m < md.num_metrics(); ++m) {
        const MetricIndex om = mapping.metric_map[m];
        if (om < lo || om >= hi || owner[om] != op) continue;
        for (CnodeIndex c = 0; c < md.num_cnodes(); ++c) {
          const CnodeIndex oc = mapping.cnode_map[c];
          for (ThreadIndex t = 0; t < md.num_threads(); ++t) {
            const Severity v = source.severity().get(m, c, t);
            if (v != 0.0) {
              out.severity().add(om, oc, mapping.thread_map[t], v);
            }
          }
        }
      }
    }
  });
  return out;
}

Experiment mean(std::span<const Experiment* const> operands,
                const OperatorOptions& options) {
  if (operands.empty()) {
    throw OperationError("reference mean requires >= 1 operand");
  }
  const IntegrationResult integration =
      integrate_metadata(operands, options.integration);
  Experiment out = make_result(integration, options);
  const double factor = 1.0 / static_cast<double>(operands.size());
  run_row_chunked(options, out.metadata().num_metrics(),
                  [&](MetricIndex lo, MetricIndex hi) {
                    for (std::size_t op = 0; op < operands.size(); ++op) {
                      scatter_scaled(*operands[op], integration.mappings[op],
                                     factor, out, lo, hi);
                    }
                  });
  return out;
}

Experiment minimum(std::span<const Experiment* const> operands,
                   const OperatorOptions& options) {
  return reduce_extremum(operands, options, /*take_min=*/true);
}

Experiment maximum(std::span<const Experiment* const> operands,
                   const OperatorOptions& options) {
  return reduce_extremum(operands, options, /*take_min=*/false);
}

Experiment stddev(std::span<const Experiment* const> operands,
                  const OperatorOptions& options) {
  return fold_series(operands, options,
                     [](const auto& at, std::size_t n) {
                       return cell_stddev(at, n);
                     });
}

Experiment variation(std::span<const Experiment* const> operands,
                     const OperatorOptions& options) {
  return fold_series(operands, options, [](const auto& at, std::size_t n) {
    const double mu = cell_mean(at, n);
    if (mu == 0.0) return 0.0;
    return cell_stddev(at, n) / std::abs(mu);
  });
}

}  // namespace cube::reference

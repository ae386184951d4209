#include "algebra/operators.hpp"

#include <string>

#include "algebra/batch.hpp"
#include "algebra/simd.hpp"
#include "common/error.hpp"
#include "obs/tracer.hpp"

namespace cube {

namespace {

/// Runs the metadata-integration phase under its own span, so operator
/// profiles separate integration cost from the severity kernels.
IntegrationResult integrate_traced(std::span<const Experiment* const> operands,
                                   const IntegrationOptions& options) {
  OBS_SPAN("phase.integrate");
  return integrate_metadata(operands, options);
}

std::string operand_label(const Experiment& e, std::size_t index) {
  const std::string name = e.name();
  return !name.empty() ? name : "exp" + std::to_string(index + 1);
}

std::string label_list(std::span<const Experiment* const> operands) {
  std::string out;
  for (std::size_t i = 0; i < operands.size(); ++i) {
    if (i > 0) out += ", ";
    out += operand_label(*operands[i], i);
  }
  return out;
}

Experiment make_result(const IntegrationResult& integration,
                       const OperatorOptions& options) {
  return Experiment(integration.metadata, options.storage);
}

/// The severity phase of difference, merge, and mean: result cell values
/// are sums of factor-scaled operand extensions, every coalescing
/// contribution added separately (batch::Coalesce::SplitRows).
void severity_linear_combine(std::span<const Experiment* const> sources,
                             std::span<const OperandMapping> mappings,
                             std::span<const double> factors, Experiment& out,
                             const OperatorOptions& options) {
  const simd::Policy policy = options.simd_policy;
  batch::reduce_batched(
      sources, mappings, factors, out, options,
      [policy](Severity* acc, const simd::TileRow* rows, std::size_t nrows,
               std::size_t n) {
        simd::reduce_sum(acc, rows, nrows, n, policy);
      },
      batch::Coalesce::SplitRows);
}

/// The severity phase of min/max: a cell-wise fold over the operands'
/// zero-extensions in operand order.
void severity_reduce_extremum(std::span<const Experiment* const> sources,
                              std::span<const OperandMapping> mappings,
                              bool take_min, Experiment& out,
                              const OperatorOptions& options) {
  const std::vector<double> ones(sources.size(), 1.0);
  const simd::Policy policy = options.simd_policy;
  batch::reduce_batched(
      sources, mappings, ones, out, options,
      [policy, take_min](Severity* acc, const simd::TileRow* rows,
                         std::size_t nrows, std::size_t n) {
        simd::reduce_extremum(acc, rows, nrows, n, take_min, policy);
      },
      batch::Coalesce::InRow);
}

/// Validates a caller-supplied hoisted IntegrationResult (docs/KERNELS.md)
/// against the operand list it claims to cover.
void check_hoisted(const char* opname,
                   std::span<const Experiment* const> operands,
                   const IntegrationResult& integration) {
  if (integration.mappings.size() != operands.size()) {
    throw OperationError(std::string(opname) + ": integration result covers " +
                         std::to_string(integration.mappings.size()) +
                         " operands, called with " +
                         std::to_string(operands.size()));
  }
}

/// Element-wise min/max share everything but the reduction.  `pre` is a
/// caller-hoisted integration result, or null to integrate here.
Experiment reduce_extremum(std::span<const Experiment* const> operands,
                           const IntegrationResult* pre,
                           const OperatorOptions& options, bool take_min,
                           const char* opname) {
  if (operands.empty()) {
    throw OperationError(std::string(opname) + " requires >= 1 operand");
  }
  IntegrationResult local;
  if (pre == nullptr) {
    local = integrate_traced(operands, options.integration);
    pre = &local;
  } else {
    check_hoisted(opname, operands, *pre);
  }
  const IntegrationResult& integration = *pre;
  Experiment out = make_result(integration, options);
  {
    OBS_SPAN("phase.severity");
    severity_reduce_extremum(operands, integration.mappings, take_min, out,
                             options);
  }
  out.mark_derived(std::string(opname) + "(" + label_list(operands) + ")");
  out.set_name(std::string(opname) + "(" + label_list(operands) + ")");
  return out;
}

/// The mean severity phase + provenance over an already-integrated series.
Experiment mean_impl(std::span<const Experiment* const> operands,
                     const IntegrationResult& integration,
                     const OperatorOptions& options) {
  Experiment out = make_result(integration, options);
  const double factor = 1.0 / static_cast<double>(operands.size());
  {
    OBS_SPAN("phase.severity");
    const std::vector<double> factors(operands.size(), factor);
    severity_linear_combine(operands, integration.mappings, factors, out,
                            options);
  }
  const std::string prov = "mean(" + label_list(operands) + ")";
  out.mark_derived(prov);
  out.set_name(prov);
  return out;
}

}  // namespace

Experiment difference(const Experiment& a, const Experiment& b,
                      const OperatorOptions& options) {
  OBS_SPAN("operator.diff");
  const Experiment* ops[] = {&a, &b};
  IntegrationResult integration =
      integrate_traced(ops, options.integration);
  Experiment out = make_result(integration, options);
  {
    OBS_SPAN("phase.severity");
    const double factors[] = {1.0, -1.0};
    severity_linear_combine(ops, integration.mappings, factors, out, options);
  }
  const std::string prov = "difference(" + operand_label(a, 0) + ", " +
                           operand_label(b, 1) + ")";
  out.mark_derived(prov);
  out.set_name(prov);
  return out;
}

Experiment merge(const Experiment& a, const Experiment& b,
                 const OperatorOptions& options) {
  OBS_SPAN("operator.merge");
  const Experiment* ops[] = {&a, &b};
  IntegrationResult integration =
      integrate_traced(ops, options.integration);
  Experiment out = make_result(integration, options);
  {
    OBS_SPAN("phase.severity");
    const std::vector<OperandMapping> masked = merge_owner_mappings(
        integration.mappings, out.metadata().num_metrics());
    const double factors[] = {1.0, 1.0};
    severity_linear_combine(ops, masked, factors, out, options);
  }

  const std::string prov =
      "merge(" + operand_label(a, 0) + ", " + operand_label(b, 1) + ")";
  out.mark_derived(prov);
  out.set_name(prov);
  return out;
}

std::vector<OperandMapping> merge_owner_mappings(
    std::span<const OperandMapping> mappings, std::size_t num_out_metrics) {
  std::vector<std::size_t> owner(num_out_metrics, kNoIndex);
  for (std::size_t op = 0; op < mappings.size(); ++op) {
    for (const MetricIndex om : mappings[op].metric_map) {
      if (owner[om] == kNoIndex) owner[om] = op;
    }
  }
  std::vector<OperandMapping> masked(mappings.begin(), mappings.end());
  for (std::size_t op = 0; op < masked.size(); ++op) {
    for (MetricIndex& om : masked[op].metric_map) {
      if (owner[om] != op) {
        om = kNoIndex;
        masked[op].metric_identity = false;
      }
    }
  }
  return masked;
}

Experiment mean(std::span<const Experiment* const> operands,
                const OperatorOptions& options) {
  OBS_SPAN("operator.mean");
  if (operands.empty()) {
    throw OperationError("mean requires >= 1 operand");
  }
  const IntegrationResult integration =
      integrate_traced(operands, options.integration);
  return mean_impl(operands, integration, options);
}

Experiment mean(const std::vector<const Experiment*>& operands,
                const OperatorOptions& options) {
  return mean(std::span<const Experiment* const>(operands), options);
}

Experiment mean(std::span<const Experiment* const> operands,
                const IntegrationResult& integration,
                const OperatorOptions& options) {
  OBS_SPAN("operator.mean");
  if (operands.empty()) {
    throw OperationError("mean requires >= 1 operand");
  }
  check_hoisted("mean", operands, integration);
  return mean_impl(operands, integration, options);
}

Experiment minimum(std::span<const Experiment* const> operands,
                   const OperatorOptions& options) {
  OBS_SPAN("operator.min");
  return reduce_extremum(operands, nullptr, options, /*take_min=*/true, "min");
}

Experiment maximum(std::span<const Experiment* const> operands,
                   const OperatorOptions& options) {
  OBS_SPAN("operator.max");
  return reduce_extremum(operands, nullptr, options, /*take_min=*/false,
                         "max");
}

Experiment minimum(std::span<const Experiment* const> operands,
                   const IntegrationResult& integration,
                   const OperatorOptions& options) {
  OBS_SPAN("operator.min");
  return reduce_extremum(operands, &integration, options, /*take_min=*/true,
                         "min");
}

Experiment maximum(std::span<const Experiment* const> operands,
                   const IntegrationResult& integration,
                   const OperatorOptions& options) {
  OBS_SPAN("operator.max");
  return reduce_extremum(operands, &integration, options, /*take_min=*/false,
                         "max");
}

}  // namespace cube

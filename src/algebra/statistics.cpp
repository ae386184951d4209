#include "algebra/statistics.hpp"

#include <cmath>
#include <string>

#include "algebra/batch.hpp"
#include "common/error.hpp"

namespace cube {

namespace {

std::string series_label(std::span<const Experiment* const> operands) {
  std::string out;
  for (std::size_t i = 0; i < operands.size(); ++i) {
    if (i > 0) out += ", ";
    const std::string name = operands[i]->name();
    out += name.empty() ? "exp" + std::to_string(i + 1) : name;
  }
  return out;
}

// The per-cell folds, written against an accessor at(r) -> r-th operand's
// zero-extended value in a tile's strided rows.  Accumulation order is
// operand order.

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

/// Shared reduction core: integrates the series once (or adopts a hoisted
/// result), then folds the N operands per cell in the batched SoA tile
/// sweep (algebra/batch.hpp) — ONE chunked, optionally parallel traversal
/// of the cell space with each operand staged as one tile row (coalescing
/// contributions accumulate in it).
template <typename Fold>
Experiment reduce_series(std::span<const Experiment* const> operands,
                         const IntegrationResult* pre,
                         const OperatorOptions& options, const char* opname,
                         const Fold& fold) {
  if (operands.size() < 2) {
    throw OperationError(std::string(opname) + " requires >= 2 operands");
  }
  IntegrationResult local;
  if (pre == nullptr) {
    local = integrate_metadata(operands, options.integration);
    pre = &local;
  } else if (pre->mappings.size() != operands.size()) {
    throw OperationError(std::string(opname) +
                         ": integration result covers " +
                         std::to_string(pre->mappings.size()) +
                         " operands, called with " +
                         std::to_string(operands.size()));
  }
  const IntegrationResult& integration = *pre;

  Experiment out(integration.metadata, options.storage);
  const std::vector<double> ones(operands.size(), 1.0);
  batch::reduce_batched(
      operands, integration.mappings, ones, out, options,
      [&fold](Severity* acc, const simd::TileRow* rows, std::size_t nrows,
              std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          const auto get = [rows, i](std::size_t r) {
            return rows[r].data[i];
          };
          acc[i] = fold(get, nrows);
        }
      },
      batch::Coalesce::InRow);
  const std::string prov =
      std::string(opname) + "(" + series_label(operands) + ")";
  out.mark_derived(prov);
  out.set_name(prov);
  return out;
}

const auto stddev_fold = [](const auto& at, std::size_t n) {
  return cell_stddev(at, n);
};

const auto variation_fold = [](const auto& at, std::size_t n) {
  const double mu = cell_mean(at, n);
  if (mu == 0.0) return 0.0;
  return cell_stddev(at, n) / std::abs(mu);
};

}  // namespace

Experiment stddev(std::span<const Experiment* const> operands,
                  const OperatorOptions& options) {
  return reduce_series(operands, nullptr, options, "stddev", stddev_fold);
}

Experiment stddev(std::span<const Experiment* const> operands,
                  const IntegrationResult& integration,
                  const OperatorOptions& options) {
  return reduce_series(operands, &integration, options, "stddev",
                       stddev_fold);
}

Experiment variation(std::span<const Experiment* const> operands,
                     const OperatorOptions& options) {
  return reduce_series(operands, nullptr, options, "variation",
                       variation_fold);
}

Experiment variation(std::span<const Experiment* const> operands,
                     const IntegrationResult& integration,
                     const OperatorOptions& options) {
  return reduce_series(operands, &integration, options, "variation",
                       variation_fold);
}

SeriesSummary summarize_series(std::span<const Experiment* const> operands,
                               const OperatorOptions& options) {
  if (operands.size() < 2) {
    throw OperationError("summarize_series requires >= 2 operands");
  }
  // One metadata integration for all four reductions.  Before the hoisted
  // operator forms existed, each of the four integrated separately — four
  // structural merges whenever the series' metadata is digest-distinct
  // but structurally equal.
  const IntegrationResult integration =
      integrate_metadata(operands, options.integration);
  SeriesSummary summary{
      mean(operands, integration, options),
      minimum(operands, integration, options),
      maximum(operands, integration, options),
      stddev(operands, integration, options),
  };
  return summary;
}

}  // namespace cube

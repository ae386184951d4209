// Per-cell reference operators: the bit-identity oracle of the severity
// sweep (docs/KERNELS.md).
//
// The original virtual get/add implementation of every operator's severity
// phase, kept outside the library so production has exactly one sweep
// engine (algebra/batch.hpp).  Each function integrates its operands with
// integrate_metadata, then scatters every non-zero source value through the
// operand mapping in ascending source (metric, cnode, thread) order and
// operand order — coalescing source cells accumulate exactly as they do
// through SeverityStore::add.  The equivalence suites and
// `bench_mean_nary --verify` compare the tile engine against these bit for
// bit.  Only OperatorOptions::integration, ::storage and ::parallel_for
// (dense results, metric-row chunks) are honoured.
#pragma once

#include <span>

#include "algebra/operators.hpp"
#include "model/experiment.hpp"

namespace cube::reference {

[[nodiscard]] Experiment difference(const Experiment& a, const Experiment& b,
                                    const OperatorOptions& options = {});
[[nodiscard]] Experiment merge(const Experiment& a, const Experiment& b,
                               const OperatorOptions& options = {});
[[nodiscard]] Experiment mean(std::span<const Experiment* const> operands,
                              const OperatorOptions& options = {});
[[nodiscard]] Experiment minimum(std::span<const Experiment* const> operands,
                                 const OperatorOptions& options = {});
[[nodiscard]] Experiment maximum(std::span<const Experiment* const> operands,
                                 const OperatorOptions& options = {});
[[nodiscard]] Experiment stddev(std::span<const Experiment* const> operands,
                                const OperatorOptions& options = {});
[[nodiscard]] Experiment variation(
    std::span<const Experiment* const> operands,
    const OperatorOptions& options = {});

}  // namespace cube::reference

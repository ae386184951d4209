// The severity sweep engine: batched structure-of-arrays tiles
// (docs/KERNELS.md).
//
// The severity phase of every operator runs as ONE sweep through the
// result's flattened cell space: the space is partitioned into the fixed
// chunk grid, each chunk is walked in tiles of kTileCells cells, and for
// every tile each operand contributes rows of a structure-of-arrays
// staging block — identity x dense operands borrow their cell span
// directly (zero copies), remapped and sparse operands gather into the
// tile once — after which a simd reduction folds the rows per cell in
// operand order.
//
// Integration may COALESCE several source rows of one operand onto one
// result row (sibling call sites of one callee merge into one cnode).  The
// reduction decides how such contributions enter the tile (Coalesce): the
// element-wise folds accumulate them in the operand's own row, the linear
// combinations give each extra contribution its own row.  Both reproduce
// the per-cell reference operators (tests/support/reference_ops.hpp) bit
// for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "algebra/integration.hpp"
#include "algebra/operators.hpp"
#include "algebra/simd.hpp"
#include "model/experiment.hpp"

namespace cube::batch {

/// Fixed upper bound on cell chunks handed to a ParallelFor.  Not derived
/// from the thread count, so the partition — and therefore any conceivable
/// numeric effect — is identical no matter how the executor schedules it.
inline constexpr std::size_t kMaxCellChunks = 32;

/// Cells per SoA staging tile.  A tile row is 32 KiB — long enough that
/// the hardware prefetcher locks onto each operand stream — and a 64-wide
/// batch stages within 2 MiB, so the in-flight working set stays
/// cache-sized at any batch width.  Tile boundaries never affect results:
/// the reduction is independent per cell.
inline constexpr std::size_t kTileCells = 4096;

/// The sweep splits [0, cells) into this many contiguous chunks.
[[nodiscard]] std::size_t num_cell_chunks(std::size_t cells);

/// How the sweep reads one operand — the one classification rule shared
/// by the executor and the plan analyzer.
enum class Access {
  Borrow,  ///< identity-mapped dense cells: tiles alias the store
  Rows,    ///< remapped dense cells: source rows gathered per tile
  Sparse,  ///< stored non-zeros walked once with a cursor
};

/// Classifies an operand of `kind` holding `nnz` non-zeros in `cells`
/// cells.  A sparse store at least half full is densified first (a
/// snapshot costs 16 bytes/entry against 8 bytes/cell for a mirror) and
/// then read like a dense one.
[[nodiscard]] Access classify_operand(StorageKind kind, std::uint64_t nnz,
                                      std::uint64_t cells, bool identity);

/// How contributions of one operand that coalesce onto one result cell
/// enter the tile.
enum class Coalesce {
  /// Accumulated in the operand's row in source order: the element-wise
  /// folds (min/max/stddev/variation) see one value per operand.
  InRow,
  /// The j-th contribution goes to the operand's j-th row, every row with
  /// the operand's factor: the linear combinations (mean, difference,
  /// merge) add each contribution separately, in source order.
  SplitRows,
};

/// Per-tile reduction: overwrite acc[0, n) with a per-cell fold over the
/// nrows operand rows (simd::reduce_sum, simd::reduce_extremum, or the
/// statistics folds).
using TileReduce = std::function<void(Severity* acc, const simd::TileRow* rows,
                                      std::size_t nrows, std::size_t n)>;

/// The severity phase of every operator: one chunked sweep staging all N
/// operands per tile and reducing them with `reduce`.  Mappings may mask
/// metrics to kNoIndex (merge ownership) and may coalesce cnodes.  Dense
/// results are reduced straight into their cell spans; sparse results go
/// through per-chunk staging merged in fixed chunk order.  Bit-identical
/// at any thread count, tile size, and batch width: the fold order per
/// cell is the operand order, then the source order, always.  Each source
/// row is visited once per tile it intersects, whatever `coalesce` says,
/// and the kernel counters of OperatorOptions::metrics record the sweep.
void reduce_batched(std::span<const Experiment* const> sources,
                    std::span<const OperandMapping> mappings,
                    std::span<const double> factors, Experiment& out,
                    const OperatorOptions& options, const TileReduce& reduce,
                    Coalesce coalesce);

}  // namespace cube::batch

// Severity storage: the data part of a CUBE experiment.
//
// The severity function maps (metric, call path, thread) index triples onto
// accumulated metric values.  Two interchangeable stores are provided:
//
//  * DenseSeverity  — one contiguous 3-D array; O(1) access, O(M*C*T) space.
//  * SparseSeverity — hash map keyed by the packed triple; space scales with
//                     the number of non-zero entries.  Real experiments are
//                     typically sparse along the (metric x call path) plane
//                     (a communication metric is zero in compute regions).
//
// Besides the virtual per-cell interface, each concrete store exposes a
// NON-VIRTUAL bulk access path (docs/STORAGE.md): DenseSeverity hands out
// contiguous spans over the flattened row-major [metric][cnode][thread]
// cell space, SparseSeverity offers ordered non-zero visitation over
// flattened cell ranges.  Operators and display aggregation are built on
// these, so dense combines become flat vectorizable loops and sparse
// operands cost O(nnz) instead of O(M*C*T).
//
// Both stores additionally support a read-only BORROWED mode over a
// CUBESEV1 blob held by a ByteOwner (src/io/severity_format.hpp): the
// pages of a mapped blob file, or a received Result frame.  The bulk
// accessors then yield views into those bytes, release_cells() lets a
// streaming consumer drop file pages behind its sweep (a no-op over heap
// bytes), and the first mutation transparently detaches into an owned
// copy.
//
// bench/bench_storage quantifies the trade-off (ablation A3 in DESIGN.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/byte_owner.hpp"
#include "common/types.hpp"

namespace cube {

/// Which severity container an Experiment uses.
enum class StorageKind { Dense, Sparse };

/// The one densify rule: `nnz` non-zeros in `cells` cells take no more
/// room as a dense array (8 bytes/cell) than as sparse key/value columns
/// (16 bytes/entry).  The severity sweep (batch::classify_operand) and the
/// Result wire encoding (io/severity_format.hpp) both decide by it.
[[nodiscard]] constexpr bool densify(std::uint64_t nnz,
                                     std::uint64_t cells) noexcept {
  return 2 * nnz >= cells;
}

/// Abstract severity container over a fixed (metrics x cnodes x threads)
/// index space.  Out-of-range indices throw cube::Error.
class SeverityStore {
 public:
  SeverityStore(std::size_t metrics, std::size_t cnodes, std::size_t threads);
  virtual ~SeverityStore() = default;

  [[nodiscard]] std::size_t num_metrics() const noexcept { return metrics_; }
  [[nodiscard]] std::size_t num_cnodes() const noexcept { return cnodes_; }
  [[nodiscard]] std::size_t num_threads() const noexcept { return threads_; }

  /// Cells per metric row of the flattened cell space.
  [[nodiscard]] std::size_t plane_size() const noexcept {
    return cnodes_ * threads_;
  }
  /// Total number of cells (metrics * cnodes * threads).
  [[nodiscard]] std::size_t num_cells() const noexcept {
    return metrics_ * plane_size();
  }

  [[nodiscard]] virtual Severity get(MetricIndex m, CnodeIndex c,
                                     ThreadIndex t) const = 0;
  virtual void set(MetricIndex m, CnodeIndex c, ThreadIndex t, Severity v) = 0;
  virtual void add(MetricIndex m, CnodeIndex c, ThreadIndex t, Severity v) = 0;

  /// Number of stored entries with a non-zero value.
  [[nodiscard]] virtual std::size_t nonzero_count() const = 0;
  /// Approximate heap bytes used by the container (for the ablation bench).
  /// Borrowed stores report only their own bookkeeping; the borrowed
  /// bytes belong to their owner.
  [[nodiscard]] virtual std::size_t memory_bytes() const = 0;

  /// True when the store's cells live in bytes borrowed from a ByteOwner
  /// rather than in the store itself (see borrowed mode above).
  [[nodiscard]] virtual bool borrowed() const noexcept { return false; }

  /// Streaming hint: the flattened cell range [lo, hi) has been consumed
  /// and will not be revisited.  Stores borrowing a mapped file drop the
  /// resident pages holding those cells (values stay readable — pages
  /// re-fault from the blob); every other store ignores it.  Never throws.
  virtual void release_cells(std::uint64_t lo, std::uint64_t hi) const {
    (void)lo;
    (void)hi;
  }

  [[nodiscard]] virtual StorageKind kind() const noexcept = 0;
  [[nodiscard]] virtual std::unique_ptr<SeverityStore> clone() const = 0;

 protected:
  void check(MetricIndex m, CnodeIndex c, ThreadIndex t) const;

  std::size_t metrics_;
  std::size_t cnodes_;
  std::size_t threads_;
};

/// Contiguous row-major [metric][cnode][thread] array.
///
/// Owned mode holds the cells in a std::vector.  Borrowed mode views a
/// span of cells inside a shared ByteOwner — reads and all bulk accessors
/// work unchanged; the first set()/add()/cells_mut() copies the view into
/// an owned vector (detach-on-write).
class DenseSeverity final : public SeverityStore {
 public:
  DenseSeverity(std::size_t metrics, std::size_t cnodes, std::size_t threads);

  /// Borrowed mode over `cells` (exactly metrics*cnodes*threads values)
  /// living inside `backing` at byte offset cells.data() - backing->data().
  DenseSeverity(std::size_t metrics, std::size_t cnodes, std::size_t threads,
                std::span<const Severity> cells,
                std::shared_ptr<const ByteOwner> backing);

  // view_ must re-anchor onto the destination's vector when copying an
  // owned store; the defaults would alias the source.
  DenseSeverity(const DenseSeverity& other);
  DenseSeverity& operator=(const DenseSeverity& other);
  DenseSeverity(DenseSeverity&& other) noexcept;
  DenseSeverity& operator=(DenseSeverity&& other) noexcept;
  ~DenseSeverity() override = default;

  [[nodiscard]] Severity get(MetricIndex m, CnodeIndex c,
                             ThreadIndex t) const override;
  void set(MetricIndex m, CnodeIndex c, ThreadIndex t, Severity v) override;
  void add(MetricIndex m, CnodeIndex c, ThreadIndex t, Severity v) override;
  [[nodiscard]] std::size_t nonzero_count() const override;
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] bool borrowed() const noexcept override {
    return backing_ != nullptr;
  }
  void release_cells(std::uint64_t lo, std::uint64_t hi) const override;
  [[nodiscard]] StorageKind kind() const noexcept override {
    return StorageKind::Dense;
  }
  [[nodiscard]] std::unique_ptr<SeverityStore> clone() const override;

  // --- non-virtual bulk access (docs/STORAGE.md) ---------------------------
  // The backing array is row-major [metric][cnode][thread]; flattened cell
  // index = (m * cnodes + c) * threads + t.

  /// The whole cell space as one contiguous read-only span.
  [[nodiscard]] std::span<const Severity> cells() const noexcept {
    return view_;
  }
  /// Read-only view of the flattened cell range [lo, hi).
  [[nodiscard]] std::span<const Severity> cells(std::size_t lo,
                                                std::size_t hi) const noexcept {
    return view_.subspan(lo, hi - lo);
  }
  /// Mutable view of the flattened cell range [lo, hi).  Disjoint ranges
  /// may be written concurrently; that is what makes dense results safe
  /// for chunk-parallel operator kernels.  Detaches a borrowed store
  /// (NOT thread-safe against concurrent reads — detach before sharing).
  [[nodiscard]] std::span<Severity> cells_mut(std::size_t lo, std::size_t hi) {
    detach();
    return std::span<Severity>(values_).subspan(lo, hi - lo);
  }

 private:
  [[nodiscard]] std::size_t offset(MetricIndex m, CnodeIndex c,
                                   ThreadIndex t) const noexcept {
    return (m * cnodes_ + c) * threads_ + t;
  }
  /// Copies a borrowed view into owned storage; no-op when already owned.
  void detach();

  std::vector<Severity> values_;
  std::span<const Severity> view_;  ///< always valid: values_ or the mapping
  std::shared_ptr<const ByteOwner> backing_;  ///< non-null in borrowed mode
};

/// Hash-map store for sparse experiments; zero entries are not materialized.
///
/// Owned mode is the hash map.  Borrowed mode views the two sorted
/// CUBESEV1 columns (ascending keys, matching values) inside a shared
/// ByteOwner: get() binary-searches, ordered visitation walks the columns
/// directly (no sort needed), and the first mutation detaches into the
/// hash map.
class SparseSeverity final : public SeverityStore {
 public:
  SparseSeverity(std::size_t metrics, std::size_t cnodes, std::size_t threads);

  /// Borrowed mode over the sorted key/value columns (equal lengths, keys
  /// strictly ascending) living inside `backing`.
  SparseSeverity(std::size_t metrics, std::size_t cnodes, std::size_t threads,
                 std::span<const std::uint64_t> keys,
                 std::span<const Severity> values,
                 std::shared_ptr<const ByteOwner> backing);

  [[nodiscard]] Severity get(MetricIndex m, CnodeIndex c,
                             ThreadIndex t) const override;
  void set(MetricIndex m, CnodeIndex c, ThreadIndex t, Severity v) override;
  void add(MetricIndex m, CnodeIndex c, ThreadIndex t, Severity v) override;
  [[nodiscard]] std::size_t nonzero_count() const override;
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] bool borrowed() const noexcept override {
    return backing_ != nullptr;
  }
  void release_cells(std::uint64_t lo, std::uint64_t hi) const override;
  [[nodiscard]] StorageKind kind() const noexcept override {
    return StorageKind::Sparse;
  }
  [[nodiscard]] std::unique_ptr<SeverityStore> clone() const override;

  // --- non-virtual bulk access (docs/STORAGE.md) ---------------------------
  // Flattened cell keys use the same row-major layout as DenseSeverity:
  // key = (m * cnodes + c) * threads + t.  Visitation is ALWAYS in
  // ascending key order — i.e. the exact order a per-cell (m, c, t) triple
  // loop touches the non-zero cells — so severity reductions built on it
  // are bit-identical to per-cell reference code.

  /// Sorted snapshot of all (flattened key, value) entries, ascending by
  /// key.  O(nnz log nnz) owned (O(nnz) copy when borrowed, already
  /// sorted); the severity sweep takes one snapshot per operand and
  /// binary-searches it per chunk instead of re-scanning the hash map.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, Severity>> sorted_cells()
      const;

  /// Bulk insert of (flattened key, value) entries: value semantics of
  /// set() per entry (zero erases) without the per-cell virtual dispatch
  /// or triple decomposition.  Keys must be < num_cells() (throws
  /// cube::Error otherwise); later entries overwrite earlier ones.  The
  /// operator kernels merge their per-chunk staging buffers through this.
  void set_cells(std::span<const std::pair<std::uint64_t, Severity>> entries);

  /// Writes every non-zero value into cells[key]; cells must span the full
  /// flattened cell space.  Unlike the ordered visitors this is one
  /// unordered hash-map pass — distinct keys write distinct slots, so no
  /// order is observable.  O(nnz) with no sort: the way to materialize a
  /// near-dense operand (see densify threshold in the operator kernels).
  void scatter_into(std::span<Severity> cells) const;

  /// Calls fn(flattened_key, value) for every non-zero cell with key in
  /// [lo, hi), ascending by key.  One hash-map scan + sort of the hits
  /// owned; a binary search + column walk when borrowed.  Use
  /// sorted_cells() when visiting many ranges of the same store.
  template <typename Fn>
  void for_each_nonzero(std::uint64_t lo, std::uint64_t hi, Fn&& fn) const {
    if (backing_ != nullptr) {
      const auto begin = std::lower_bound(keys_view_.begin(), keys_view_.end(),
                                          lo);
      for (auto it = begin; it != keys_view_.end() && *it < hi; ++it) {
        const Severity v = vals_view_[static_cast<std::size_t>(
            it - keys_view_.begin())];
        if (v != 0.0) fn(*it, v);
      }
      return;
    }
    std::vector<std::pair<std::uint64_t, Severity>> hits;
    for (const auto& [k, v] : values_) {
      if (k >= lo && k < hi) hits.emplace_back(k, v);
    }
    std::sort(hits.begin(), hits.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [k, v] : hits) fn(k, v);
  }

 private:
  [[nodiscard]] std::uint64_t key(MetricIndex m, CnodeIndex c,
                                  ThreadIndex t) const noexcept {
    return (static_cast<std::uint64_t>(m) * cnodes_ + c) * threads_ + t;
  }
  /// Loads the borrowed columns into the hash map; no-op when owned.
  void detach();

  std::unordered_map<std::uint64_t, Severity> values_;
  std::span<const std::uint64_t> keys_view_;  ///< borrowed mode only
  std::span<const Severity> vals_view_;       ///< borrowed mode only
  std::shared_ptr<const ByteOwner> backing_;  ///< non-null in borrowed mode
};

/// Factory for the requested storage kind.
[[nodiscard]] std::unique_ptr<SeverityStore> make_severity_store(
    StorageKind kind, std::size_t metrics, std::size_t cnodes,
    std::size_t threads);

}  // namespace cube

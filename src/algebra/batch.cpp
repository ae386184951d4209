#include "algebra/batch.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace cube::batch {

std::size_t num_cell_chunks(std::size_t cells) {
  return std::max<std::size_t>(1, std::min(cells, kMaxCellChunks));
}

Access classify_operand(StorageKind kind, std::uint64_t nnz,
                        std::uint64_t cells, bool identity) {
  if (kind == StorageKind::Sparse && !densify(nnz, cells)) {
    return Access::Sparse;
  }
  return identity ? Access::Borrow : Access::Rows;
}

namespace {

/// Shape of the integrated (result) cell space.
struct OutShape {
  std::size_t metrics = 0;
  std::size_t cnodes = 0;
  std::size_t threads = 0;
  std::size_t plane = 0;  ///< cnodes * threads
  std::size_t cells = 0;  ///< metrics * plane
};

OutShape shape_of(const Metadata& md) {
  OutShape os;
  os.metrics = md.num_metrics();
  os.cnodes = md.num_cnodes();
  os.threads = md.num_threads();
  os.plane = os.cnodes * os.threads;
  os.cells = os.metrics * os.plane;
  return os;
}

using SparseSnapshot = std::vector<std::pair<std::uint64_t, Severity>>;

/// The kernel counters of OperatorOptions::metrics, resolved ONCE per
/// operator application (registration takes the registry mutex; updates
/// are relaxed atomics).  All-null when no registry was supplied.
struct KernelCounters {
  obs::Counter* identity_dense_cells = nullptr;
  obs::Counter* remap_dense_cells = nullptr;
  obs::Counter* identity_sparse_nnz = nullptr;
  obs::Counter* remap_sparse_nnz = nullptr;
  obs::Counter* chunks = nullptr;
  obs::Counter* applications = nullptr;
  obs::Counter* batch_tiles = nullptr;
  obs::Counter* batch_width = nullptr;

  static KernelCounters resolve(obs::MetricsRegistry* registry) {
    KernelCounters kc;
    if (registry == nullptr) return kc;
    kc.identity_dense_cells =
        &registry->counter(kernel_counters::kIdentityDenseCells);
    kc.remap_dense_cells =
        &registry->counter(kernel_counters::kRemapDenseCells);
    kc.identity_sparse_nnz =
        &registry->counter(kernel_counters::kIdentitySparseNnz);
    kc.remap_sparse_nnz = &registry->counter(kernel_counters::kRemapSparseNnz);
    kc.chunks = &registry->counter(kernel_counters::kChunks);
    kc.applications = &registry->counter(kernel_counters::kApplications);
    kc.batch_tiles = &registry->counter(kernel_counters::kBatchTiles);
    kc.batch_width = &registry->counter(kernel_counters::kBatchWidth);
    return kc;
  }
};

/// Per-chunk kernel counters, flushed once into the shared registry.
struct LocalKernelStats {
  std::uint64_t identity_dense_cells = 0;
  std::uint64_t remap_dense_cells = 0;
  std::uint64_t identity_sparse_nnz = 0;
  std::uint64_t remap_sparse_nnz = 0;
  std::uint64_t batch_tiles = 0;

  void flush(const KernelCounters& kc) const {
    if (kc.identity_dense_cells == nullptr) return;
    if (identity_dense_cells != 0) {
      kc.identity_dense_cells->add(identity_dense_cells);
    }
    if (remap_dense_cells != 0) kc.remap_dense_cells->add(remap_dense_cells);
    if (identity_sparse_nnz != 0) {
      kc.identity_sparse_nnz->add(identity_sparse_nnz);
    }
    if (remap_sparse_nnz != 0) kc.remap_sparse_nnz->add(remap_sparse_nnz);
    if (batch_tiles != 0) kc.batch_tiles->add(batch_tiles);
  }
};

/// Runs body(chunk, cell_lo, cell_hi) over the fixed partition of
/// [0, cells) into num_cell_chunks(cells) contiguous ranges.
void run_cell_chunked(
    const OperatorOptions& options, const KernelCounters& kc, std::size_t cells,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  const std::size_t chunks = num_cell_chunks(cells);
  if (kc.chunks != nullptr) kc.chunks->add(chunks);
  const auto run = [&](std::size_t k) {
    const std::size_t lo = k * cells / chunks;
    const std::size_t hi = (k + 1) * cells / chunks;
    if (lo < hi) {
      OBS_SPAN("severity.chunk");
      body(k, lo, hi);
    }
  };
  if (options.parallel_for && chunks > 1) {
    options.parallel_for(chunks, run);
  } else {
    for (std::size_t k = 0; k < chunks; ++k) run(k);
  }
}

/// Writes the non-zero entries of per-chunk staging buffers into a
/// result, in chunk order.  Chunks cover disjoint cell ranges, so the
/// stored values are independent of execution order by construction.
void merge_staged(Experiment& out, const OutShape& os,
                  std::vector<SparseSnapshot>& staged) {
  SeverityStore& sev = out.severity();
  if (sev.kind() == StorageKind::Sparse) {
    auto& sparse = static_cast<SparseSeverity&>(sev);
    for (const SparseSnapshot& chunk : staged) sparse.set_cells(chunk);
    return;
  }
  for (const SparseSnapshot& chunk : staged) {
    for (const auto& [cell, v] : chunk) {
      const std::size_t rest = cell % os.plane;
      sev.set(cell / os.plane, rest / os.threads, rest % os.threads, v);
    }
  }
}

/// Releases the file-backed pages of every identity-mapped operand for
/// the consumed result cell range [lo, hi) — the streaming hook behind
/// OperatorOptions::release_operand_pages.  Identity mappings make source
/// and result cell indices coincide, so the range translates directly;
/// remapped operands are skipped, and release_cells() is a no-op on
/// stores that do not borrow a mapped file.
void release_consumed(std::span<const Experiment* const> sources,
                      std::span<const OperandMapping> mappings,
                      std::size_t lo, std::size_t hi) {
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (mappings[i].identity()) sources[i]->severity().release_cells(lo, hi);
  }
}

/// One operand prepared for SoA tile staging.  Exactly one of `borrow`
/// (identity x dense: tiles alias the store's cells directly), `rows`
/// (remapped dense rows sorted by result base), or `snapshot` (sparse
/// non-zeros with RESULT-space keys, ascending) is populated.  Entries
/// landing on one result cell are adjacent, in source order; under
/// Coalesce::SplitRows the j-th of them is staged in tile row j of the
/// operand's `layers` rows.
struct BatchOperand {
  const Severity* borrow = nullptr;

  struct Row {
    std::size_t out_base = 0;      ///< result cell of the row's thread 0
    const Severity* src = nullptr;  ///< source row of src_threads cells
  };
  std::vector<Row> rows;
  const std::vector<ThreadIndex>* thread_map = nullptr;
  std::size_t src_threads = 0;

  SparseSnapshot snapshot;
  bool sparse = false;
  bool identity = false;  ///< counter classification for sparse operands
  std::size_t layers = 1;  ///< tile rows staged per tile
};

/// Longest run of equal keys in a sorted sequence: the most contributions
/// one result cell (or row) receives from one operand.
template <typename T, typename Key>
std::size_t longest_run(const std::vector<T>& sorted, const Key& key) {
  std::size_t longest = sorted.empty() ? 0 : 1;
  std::size_t run = 1;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    run = key(sorted[i]) == key(sorted[i - 1]) ? run + 1 : 1;
    longest = std::max(longest, run);
  }
  return std::max<std::size_t>(1, longest);
}

/// Prepares every operand once per application, as classify_operand
/// says: near-full sparse stores are densified, sparse snapshots are
/// remapped into result space HERE, once, instead of per chunk.  The
/// stable sorts keep contributions that coalesce onto one result cell in
/// source order.
std::vector<BatchOperand> prepare_batch(
    std::span<const Experiment* const> sources,
    std::span<const OperandMapping> mappings, const OutShape& os,
    Coalesce coalesce, std::vector<std::vector<Severity>>& mirror_storage) {
  mirror_storage.resize(sources.size());
  std::vector<BatchOperand> prepared(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const SeverityStore& sev = sources[i]->severity();
    const OperandMapping& mapping = mappings[i];
    BatchOperand& op = prepared[i];
    // A dense store's nonzero_count() scans (and faults in) every cell;
    // its class never depends on it.
    const bool sparse_kind = sev.kind() == StorageKind::Sparse;
    const Access access = classify_operand(
        sev.kind(), sparse_kind ? sev.nonzero_count() : sev.num_cells(),
        sev.num_cells(), mapping.identity());

    const Severity* dense = nullptr;
    if (!sparse_kind) {
      dense = static_cast<const DenseSeverity&>(sev).cells().data();
    } else if (access != Access::Sparse) {
      const auto& sp = static_cast<const SparseSeverity&>(sev);
      mirror_storage[i].assign(sp.num_cells(), 0.0);
      sp.scatter_into(mirror_storage[i]);
      dense = mirror_storage[i].data();
    }

    if (access == Access::Borrow) {
      op.borrow = dense;
      continue;
    }
    if (access == Access::Rows) {
      const std::size_t sm = sev.num_metrics();
      const std::size_t sc = sev.num_cnodes();
      op.src_threads = sev.num_threads();
      op.thread_map = &mapping.thread_map;
      op.rows.reserve(sm * sc);
      for (MetricIndex m = 0; m < sm; ++m) {
        const MetricIndex om = mapping.metric_map[m];
        if (om == kNoIndex) continue;
        for (CnodeIndex c = 0; c < sc; ++c) {
          op.rows.push_back(
              {(om * os.cnodes + mapping.cnode_map[c]) * os.threads,
               dense + (m * sc + c) * op.src_threads});
        }
      }
      std::stable_sort(op.rows.begin(), op.rows.end(),
                       [](const BatchOperand::Row& a,
                          const BatchOperand::Row& b) {
                         return a.out_base < b.out_base;
                       });
      if (coalesce == Coalesce::SplitRows) {
        op.layers = longest_run(
            op.rows, [](const BatchOperand::Row& r) { return r.out_base; });
      }
      continue;
    }

    const auto& sp = static_cast<const SparseSeverity&>(sev);
    op.sparse = true;
    op.identity = mapping.identity();
    if (op.identity) {
      op.snapshot = sp.sorted_cells();
      continue;
    }
    const auto source_cells = sp.sorted_cells();
    const std::size_t st = sev.num_threads();
    const std::size_t splane = sev.num_cnodes() * st;
    op.snapshot.reserve(source_cells.size());
    for (const auto& [key, v] : source_cells) {
      const MetricIndex om = mapping.metric_map[key / splane];
      if (om == kNoIndex) continue;
      const std::size_t rest = key % splane;
      op.snapshot.emplace_back(
          (om * os.cnodes + mapping.cnode_map[rest / st]) * os.threads +
              mapping.thread_map[rest % st],
          v);
    }
    std::stable_sort(
        op.snapshot.begin(), op.snapshot.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (coalesce == Coalesce::SplitRows) {
      op.layers =
          longest_run(op.snapshot, [](const auto& e) { return e.first; });
    }
  }
  return prepared;
}

/// Gathers one operand's tile rows [lo, hi) into `rows` (op.layers rows
/// of kTileCells stride, zero-extended), advancing the operand's chunk
/// cursor.  Cursors are monotone: rows are sorted by out_base and
/// snapshots by key, and tiles ascend, so every non-zero is located once
/// per application, not once per tile.  Contributions to one result cell
/// are adjacent, so the j-th of them is counted off as it is met.
void gather_tile(const BatchOperand& op, const OutShape& os, Severity* rows,
                 std::size_t lo, std::size_t hi, std::size_t& cursor,
                 LocalKernelStats& ks) {
  for (std::size_t j = 0; j < op.layers; ++j) {
    std::fill_n(rows + j * kTileCells, hi - lo, 0.0);
  }
  std::size_t layer = 0;
  if (op.sparse) {
    std::uint64_t applied = 0;
    while (cursor < op.snapshot.size() && op.snapshot[cursor].first < hi) {
      const auto& [key, v] = op.snapshot[cursor];
      if (key >= lo) {
        if (op.layers > 1) {
          layer = cursor > 0 && op.snapshot[cursor - 1].first == key
                      ? layer + 1
                      : 0;
        }
        rows[layer * kTileCells + (key - lo)] += v;
        ++applied;
      }
      ++cursor;
    }
    if (op.identity) {
      ks.identity_sparse_nnz += applied;
    } else {
      ks.remap_sparse_nnz += applied;
    }
    return;
  }
  // Dense remapped rows.  A row spans os.threads result cells and may
  // straddle tile boundaries, so the cursor only passes rows that ended
  // before this tile; rows crossing the upper boundary are clamped and
  // revisited by the next tile.
  while (cursor < op.rows.size() &&
         op.rows[cursor].out_base + os.threads <= lo) {
    ++cursor;
  }
  const std::vector<ThreadIndex>& tmap = *op.thread_map;
  for (std::size_t r = cursor; r < op.rows.size(); ++r) {
    const BatchOperand::Row& rw = op.rows[r];
    if (rw.out_base >= hi) break;
    if (op.layers > 1) {
      layer = r > cursor && op.rows[r - 1].out_base == rw.out_base ? layer + 1
                                                                   : 0;
    }
    Severity* row = rows + layer * kTileCells;
    if (lo <= rw.out_base && rw.out_base + os.threads <= hi) {
      for (ThreadIndex t = 0; t < op.src_threads; ++t) {
        const Severity v = rw.src[t];
        if (v != 0.0) row[rw.out_base + tmap[t] - lo] += v;
      }
    } else {
      for (ThreadIndex t = 0; t < op.src_threads; ++t) {
        const std::size_t cell = rw.out_base + tmap[t];
        if (cell < lo || cell >= hi) continue;
        const Severity v = rw.src[t];
        if (v != 0.0) row[cell - lo] += v;
      }
    }
    ks.remap_dense_cells += op.src_threads;
  }
}

}  // namespace

void reduce_batched(std::span<const Experiment* const> sources,
                    std::span<const OperandMapping> mappings,
                    std::span<const double> factors, Experiment& out,
                    const OperatorOptions& options, const TileReduce& reduce,
                    Coalesce coalesce) {
  const OutShape os = shape_of(out.metadata());
  if (os.cells == 0 || sources.empty()) return;
  const KernelCounters kc = KernelCounters::resolve(options.metrics);
  if (kc.applications != nullptr) kc.applications->add(1);
  if (kc.batch_width != nullptr) kc.batch_width->add(sources.size());

  std::vector<std::vector<Severity>> mirror_storage;
  const std::vector<BatchOperand> prepared =
      prepare_batch(sources, mappings, os, coalesce, mirror_storage);

  DenseSeverity* dense_out =
      out.severity().kind() == StorageKind::Dense
          ? &static_cast<DenseSeverity&>(out.severity())
          : nullptr;
  std::vector<SparseSnapshot> staged(
      dense_out != nullptr ? 0 : num_cell_chunks(os.cells));

  // Tile rows: one per borrowed operand, `layers` per gathered one.
  std::size_t num_gathered = 0;
  std::size_t num_rows = 0;
  for (const BatchOperand& op : prepared) {
    if (op.borrow == nullptr) num_gathered += op.layers;
    num_rows += op.layers;
  }

  run_cell_chunked(
      options, kc, os.cells,
      [&](std::size_t k, std::size_t lo, std::size_t hi) {
        LocalKernelStats ks;
        // Chunk-local cursors, positioned once at the chunk's lower bound.
        std::vector<std::size_t> cursor(prepared.size(), 0);
        for (std::size_t i = 0; i < prepared.size(); ++i) {
          const BatchOperand& op = prepared[i];
          if (op.borrow != nullptr) continue;
          if (op.sparse) {
            cursor[i] = static_cast<std::size_t>(
                std::lower_bound(op.snapshot.begin(), op.snapshot.end(), lo,
                                 [](const auto& entry, std::uint64_t key) {
                                   return entry.first < key;
                                 }) -
                op.snapshot.begin());
          } else {
            cursor[i] = static_cast<std::size_t>(
                std::partition_point(op.rows.begin(), op.rows.end(),
                                     [&](const BatchOperand::Row& r) {
                                       return r.out_base + os.threads <= lo;
                                     }) -
                op.rows.begin());
          }
        }
        std::vector<Severity> staging(num_gathered * kTileCells);
        std::vector<simd::TileRow> tile(num_rows);
        std::vector<Severity> buf;
        if (dense_out == nullptr) buf.assign(hi - lo, 0.0);

        for (std::size_t tlo = lo; tlo < hi; tlo += kTileCells) {
          const std::size_t thi = std::min(hi, tlo + kTileCells);
          const std::size_t tn = thi - tlo;
          std::size_t slot = 0;
          std::size_t t = 0;
          for (std::size_t i = 0; i < prepared.size(); ++i) {
            const BatchOperand& op = prepared[i];
            if (op.borrow != nullptr) {
              tile[t++] = {op.borrow + tlo, factors[i]};
              ks.identity_dense_cells += tn;
              continue;
            }
            Severity* rows = staging.data() + slot * kTileCells;
            slot += op.layers;
            gather_tile(op, os, rows, tlo, thi, cursor[i], ks);
            for (std::size_t j = 0; j < op.layers; ++j) {
              tile[t++] = {rows + j * kTileCells, factors[i]};
            }
          }
          Severity* acc = dense_out != nullptr
                              ? dense_out->cells_mut(tlo, thi).data()
                              : buf.data() + (tlo - lo);
          reduce(acc, tile.data(), tile.size(), tn);
          ++ks.batch_tiles;
        }

        if (dense_out == nullptr) {
          for (std::size_t i = 0; i < buf.size(); ++i) {
            if (buf[i] != 0.0) staged[k].emplace_back(lo + i, buf[i]);
          }
        }
        ks.flush(kc);
        if (options.release_operand_pages) {
          release_consumed(sources, mappings, lo, hi);
        }
      });
  if (dense_out == nullptr) merge_staged(out, os, staged);
}

}  // namespace cube::batch

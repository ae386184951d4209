#include "model/severity.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace cube {

SeverityStore::SeverityStore(std::size_t metrics, std::size_t cnodes,
                             std::size_t threads)
    : metrics_(metrics), cnodes_(cnodes), threads_(threads) {}

void SeverityStore::check(MetricIndex m, CnodeIndex c, ThreadIndex t) const {
  if (m >= metrics_ || c >= cnodes_ || t >= threads_) {
    throw Error("severity index (" + std::to_string(m) + "," +
                std::to_string(c) + "," + std::to_string(t) +
                ") out of range (" + std::to_string(metrics_) + "," +
                std::to_string(cnodes_) + "," + std::to_string(threads_) +
                ")");
  }
}

DenseSeverity::DenseSeverity(std::size_t metrics, std::size_t cnodes,
                             std::size_t threads)
    : SeverityStore(metrics, cnodes, threads),
      values_(metrics * cnodes * threads, 0.0),
      view_(values_) {}

DenseSeverity::DenseSeverity(std::size_t metrics, std::size_t cnodes,
                             std::size_t threads,
                             std::span<const Severity> cells,
                             std::shared_ptr<const ByteOwner> backing)
    : SeverityStore(metrics, cnodes, threads),
      view_(cells),
      backing_(std::move(backing)) {
  if (cells.size() != num_cells()) {
    throw Error("borrowed dense severity has " + std::to_string(cells.size()) +
                " cells, shape needs " + std::to_string(num_cells()));
  }
  if (backing_ == nullptr) {
    throw Error("borrowed dense severity requires a byte owner");
  }
}

DenseSeverity::DenseSeverity(const DenseSeverity& other)
    : SeverityStore(other),
      values_(other.values_),
      view_(other.backing_ != nullptr ? other.view_
                                      : std::span<const Severity>(values_)),
      backing_(other.backing_) {}

DenseSeverity& DenseSeverity::operator=(const DenseSeverity& other) {
  if (this != &other) {
    SeverityStore::operator=(other);
    values_ = other.values_;
    backing_ = other.backing_;
    view_ = backing_ != nullptr ? other.view_
                                : std::span<const Severity>(values_);
  }
  return *this;
}

DenseSeverity::DenseSeverity(DenseSeverity&& other) noexcept
    : SeverityStore(other),
      values_(std::move(other.values_)),
      // A moved vector keeps its heap buffer, so re-anchoring on values_
      // yields the same cells the source viewed.
      view_(other.backing_ != nullptr ? other.view_
                                      : std::span<const Severity>(values_)),
      backing_(std::move(other.backing_)) {}

DenseSeverity& DenseSeverity::operator=(DenseSeverity&& other) noexcept {
  if (this != &other) {
    SeverityStore::operator=(other);
    values_ = std::move(other.values_);
    backing_ = std::move(other.backing_);
    view_ = backing_ != nullptr ? other.view_
                                : std::span<const Severity>(values_);
  }
  return *this;
}

void DenseSeverity::detach() {
  if (backing_ == nullptr) return;
  values_.assign(view_.begin(), view_.end());
  view_ = values_;
  backing_.reset();
}

Severity DenseSeverity::get(MetricIndex m, CnodeIndex c, ThreadIndex t) const {
  check(m, c, t);
  return view_[offset(m, c, t)];
}

void DenseSeverity::set(MetricIndex m, CnodeIndex c, ThreadIndex t,
                        Severity v) {
  check(m, c, t);
  detach();
  values_[offset(m, c, t)] = v;
}

void DenseSeverity::add(MetricIndex m, CnodeIndex c, ThreadIndex t,
                        Severity v) {
  check(m, c, t);
  detach();
  values_[offset(m, c, t)] += v;
}

std::size_t DenseSeverity::nonzero_count() const {
  std::size_t n = 0;
  for (const Severity v : view_) {
    if (v != 0.0) ++n;
  }
  return n;
}

std::size_t DenseSeverity::memory_bytes() const {
  return values_.capacity() * sizeof(Severity);
}

void DenseSeverity::release_cells(std::uint64_t lo, std::uint64_t hi) const {
  if (backing_ == nullptr || lo >= hi) return;
  const auto* base = reinterpret_cast<const std::byte*>(view_.data());
  const std::size_t offset =
      static_cast<std::size_t>(base - backing_->data()) +
      static_cast<std::size_t>(lo) * sizeof(Severity);
  backing_->release_range(offset,
                          static_cast<std::size_t>(hi - lo) * sizeof(Severity));
}

std::unique_ptr<SeverityStore> DenseSeverity::clone() const {
  auto copy = std::make_unique<DenseSeverity>(metrics_, cnodes_, threads_);
  std::copy(view_.begin(), view_.end(), copy->values_.begin());
  return copy;
}

SparseSeverity::SparseSeverity(std::size_t metrics, std::size_t cnodes,
                               std::size_t threads)
    : SeverityStore(metrics, cnodes, threads) {}

SparseSeverity::SparseSeverity(std::size_t metrics, std::size_t cnodes,
                               std::size_t threads,
                               std::span<const std::uint64_t> keys,
                               std::span<const Severity> values,
                               std::shared_ptr<const ByteOwner> backing)
    : SeverityStore(metrics, cnodes, threads),
      keys_view_(keys),
      vals_view_(values),
      backing_(std::move(backing)) {
  if (keys.size() != values.size()) {
    throw Error("borrowed sparse severity column lengths differ");
  }
  if (backing_ == nullptr) {
    throw Error("borrowed sparse severity requires a byte owner");
  }
  const std::uint64_t cells = num_cells();
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] >= cells || (i > 0 && keys[i] <= prev)) {
      throw Error("borrowed sparse severity keys must be strictly ascending "
                  "and in range");
    }
    prev = keys[i];
  }
}

void SparseSeverity::detach() {
  if (backing_ == nullptr) return;
  values_.reserve(keys_view_.size());
  for (std::size_t i = 0; i < keys_view_.size(); ++i) {
    if (vals_view_[i] != 0.0) values_.emplace(keys_view_[i], vals_view_[i]);
  }
  keys_view_ = {};
  vals_view_ = {};
  backing_.reset();
}

Severity SparseSeverity::get(MetricIndex m, CnodeIndex c,
                             ThreadIndex t) const {
  check(m, c, t);
  const std::uint64_t k = key(m, c, t);
  if (backing_ != nullptr) {
    const auto it =
        std::lower_bound(keys_view_.begin(), keys_view_.end(), k);
    if (it != keys_view_.end() && *it == k) {
      return vals_view_[static_cast<std::size_t>(it - keys_view_.begin())];
    }
    return 0.0;
  }
  const auto it = values_.find(k);
  return it != values_.end() ? it->second : 0.0;
}

void SparseSeverity::set(MetricIndex m, CnodeIndex c, ThreadIndex t,
                         Severity v) {
  check(m, c, t);
  detach();
  if (v == 0.0) {
    values_.erase(key(m, c, t));
  } else {
    values_[key(m, c, t)] = v;
  }
}

void SparseSeverity::add(MetricIndex m, CnodeIndex c, ThreadIndex t,
                         Severity v) {
  check(m, c, t);
  if (v == 0.0) return;
  detach();
  auto [it, inserted] = values_.try_emplace(key(m, c, t), v);
  if (!inserted) {
    it->second += v;
    if (it->second == 0.0) values_.erase(it);
  }
}

std::size_t SparseSeverity::nonzero_count() const {
  if (backing_ != nullptr) {
    // The CUBESEV1 writer drops zero cells, so entry count == nonzero
    // count — O(1) from the key column's extent, without faulting in
    // mapped values pages (the operator dispatch heuristic polls this
    // before every file-backed streaming reduction).
    return keys_view_.size();
  }
  std::size_t n = 0;
  for (const auto& [k, v] : values_) {
    if (v != 0.0) ++n;
  }
  return n;
}

std::size_t SparseSeverity::memory_bytes() const {
  // Bucket array + one node allocation per entry (libstdc++ layout estimate).
  // Borrowed columns belong to their owner.
  return values_.bucket_count() * sizeof(void*) +
         values_.size() *
             (sizeof(std::uint64_t) + sizeof(Severity) + 2 * sizeof(void*));
}

void SparseSeverity::release_cells(std::uint64_t lo, std::uint64_t hi) const {
  if (backing_ == nullptr || lo >= hi || keys_view_.empty()) return;
  // Find the entry index range holding keys in [lo, hi) and release the
  // corresponding slices of both columns.
  const auto begin = std::lower_bound(keys_view_.begin(), keys_view_.end(), lo);
  const auto end = std::lower_bound(begin, keys_view_.end(), hi);
  if (begin == end) return;
  const auto i0 = static_cast<std::size_t>(begin - keys_view_.begin());
  const auto i1 = static_cast<std::size_t>(end - keys_view_.begin());
  const auto* kbase = reinterpret_cast<const std::byte*>(keys_view_.data());
  const auto* vbase = reinterpret_cast<const std::byte*>(vals_view_.data());
  backing_->release_range(
      static_cast<std::size_t>(kbase - backing_->data()) +
          i0 * sizeof(std::uint64_t),
      (i1 - i0) * sizeof(std::uint64_t));
  backing_->release_range(
      static_cast<std::size_t>(vbase - backing_->data()) +
          i0 * sizeof(Severity),
      (i1 - i0) * sizeof(Severity));
}

void SparseSeverity::set_cells(
    std::span<const std::pair<std::uint64_t, Severity>> entries) {
  detach();
  values_.reserve(values_.size() + entries.size());
  const std::uint64_t cells = num_cells();
  for (const auto& [k, v] : entries) {
    if (k >= cells) {
      throw Error("severity cell key " + std::to_string(k) +
                  " out of range (" + std::to_string(cells) + " cells)");
    }
    if (v == 0.0) {
      values_.erase(k);
    } else {
      values_[k] = v;
    }
  }
}

void SparseSeverity::scatter_into(std::span<Severity> cells) const {
  if (backing_ != nullptr) {
    for (std::size_t i = 0; i < keys_view_.size(); ++i) {
      cells[keys_view_[i]] = vals_view_[i];
    }
    return;
  }
  for (const auto& [k, v] : values_) cells[k] = v;
}

std::vector<std::pair<std::uint64_t, Severity>> SparseSeverity::sorted_cells()
    const {
  if (backing_ != nullptr) {
    std::vector<std::pair<std::uint64_t, Severity>> cells;
    cells.reserve(keys_view_.size());
    for (std::size_t i = 0; i < keys_view_.size(); ++i) {
      if (vals_view_[i] != 0.0) {
        cells.emplace_back(keys_view_[i], vals_view_[i]);
      }
    }
    return cells;
  }
  std::vector<std::pair<std::uint64_t, Severity>> cells(values_.begin(),
                                                        values_.end());
  std::sort(cells.begin(), cells.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return cells;
}

std::unique_ptr<SeverityStore> SparseSeverity::clone() const {
  auto copy = std::make_unique<SparseSeverity>(metrics_, cnodes_, threads_);
  if (backing_ != nullptr) {
    copy->values_.reserve(keys_view_.size());
    for (std::size_t i = 0; i < keys_view_.size(); ++i) {
      if (vals_view_[i] != 0.0) {
        copy->values_.emplace(keys_view_[i], vals_view_[i]);
      }
    }
  } else {
    copy->values_ = values_;
  }
  return copy;
}

std::unique_ptr<SeverityStore> make_severity_store(StorageKind kind,
                                                   std::size_t metrics,
                                                   std::size_t cnodes,
                                                   std::size_t threads) {
  if (kind == StorageKind::Dense) {
    return std::make_unique<DenseSeverity>(metrics, cnodes, threads);
  }
  return std::make_unique<SparseSeverity>(metrics, cnodes, threads);
}

}  // namespace cube

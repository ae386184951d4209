// Percentiles that carry their sample count (README.md, "Percentiles").
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// One percentile of a sample: the value, the sample count, and how many
/// samples lie strictly beyond the percentile's rank.  A percentile with
/// fewer than ten samples beyond it is flagged as under-supported.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;

  [[nodiscard]] bool supported() const { return beyond >= 10; }
};

/// Nearest-rank percentile, p in [0, 1]; {0, 0, 0} for an empty sample.
[[nodiscard]] inline Quantile percentile(std::vector<double> v, double p) {
  Quantile q;
  q.samples = v.size();
  if (v.empty()) return q;
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  q.value = v[rank - 1];
  q.beyond = v.size() - rank;
  return q;
}

/// "p99 12.345 ms (n=1500, 15 beyond)" — the human-readable form every
/// timing line uses; under-supported percentiles say so.
[[nodiscard]] inline std::string describe(const char* label,
                                          const Quantile& q,
                                          const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s %.4f %s (n=%zu, %zu beyond%s)", label,
                q.value, unit, q.samples, q.beyond,
                q.supported() ? "" : ", under-supported");
  return buf;
}

[[nodiscard]] inline double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace perfbench

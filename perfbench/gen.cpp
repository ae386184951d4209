#include "gen.hpp"

#include <algorithm>
#include <functional>
#include <memory>

#include "model/system_factory.hpp"

namespace perfbench {

std::string numbered(std::string_view prefix, std::uint64_t n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng r(a ^ (b * 0xd1b54a32d192ed03ull));
  r.next();
  return r.next();
}

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "hot_replay") return Workload::HotReplay;
  if (name == "cold_series") return Workload::ColdSeries;
  if (name == "ingest_mixed") return Workload::IngestMixed;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::HotReplay:
      return "hot_replay";
    case Workload::ColdSeries:
      return "cold_series";
    case Workload::IngestMixed:
      break;
  }
  return "ingest_mixed";
}

cube::Experiment make_run(const RunShape& shape) {
  auto md = std::make_unique<cube::Metadata>();
  const cube::Metric* parent = nullptr;
  for (std::size_t i = 0; i < shape.metrics; ++i) {
    if (i % 4 == 0) parent = nullptr;  // metric chains of depth 4
    const std::string name = numbered(shape.metric_prefix, i);
    parent = &md->add_metric(parent, name, name, cube::Unit::Seconds);
  }
  // Regions are named by creation order, so two fan-outs give two call
  // trees over the same region names that integrate only partly.  Line
  // ranges are disjoint so the metadata nests properly.
  std::size_t created = 0;
  auto region = [&]() -> const cube::Region& {
    const long k = static_cast<long>(created++);
    return md->add_region(numbered("f", k), "app.c", 2 * k + 1,
                          2 * k + 2);
  };
  const cube::Cnode* root = &md->add_cnode_for_region(nullptr, region());
  const std::function<void(const cube::Cnode*, std::size_t)> grow =
      [&](const cube::Cnode* p, std::size_t depth) {
        if (depth >= 8) return;
        for (std::size_t k = 0; k < shape.fanout && created < shape.cnodes;
             ++k) {
          grow(&md->add_cnode_for_region(p, region()), depth + 1);
        }
      };
  grow(root, 0);
  cube::build_regular_system(*md, "node", 1,
                             static_cast<int>(shape.threads));

  cube::Experiment e(std::move(md), shape.storage);
  e.set_name(shape.name);
  for (const auto& [k, v] : shape.attributes) e.set_attribute(k, v);
  Rng rng(shape.seed);
  const cube::Metadata& m = e.metadata();
  for (cube::MetricIndex mi = 0; mi < m.num_metrics(); ++mi) {
    for (cube::CnodeIndex ci = 0; ci < m.num_cnodes(); ++ci) {
      for (cube::ThreadIndex ti = 0; ti < m.num_threads(); ++ti) {
        if (shape.fill >= 1.0 || rng.uniform() < shape.fill) {
          e.severity().set(mi, ci, ti, 1.0 + 9.0 * rng.uniform());
        }
      }
    }
  }
  return e;
}

namespace {

// --- cold_series pools ------------------------------------------------------
// Dense runs are 8 metrics x 128 call paths x 64 threads = 512 KiB of
// severity each; 624 of them (A, B and M dense) make a ~312 MiB severity
// working set, larger than a 300 MiB L3 and than the 256 MiB result cache.
struct Pool {
  const char* prefix;
  std::size_t count;
  std::size_t fanout;
  const char* metric_prefix;
  double fill;
  cube::StorageKind storage;
};

constexpr Pool kAd{"ad", 400, 4, "m", 1.0, cube::StorageKind::Dense};
constexpr Pool kAs{"as", 128, 4, "m", 0.01, cube::StorageKind::Sparse};
constexpr Pool kBd{"bd", 160, 3, "m", 1.0, cube::StorageKind::Dense};
constexpr Pool kBs{"bs", 64, 3, "m", 0.01, cube::StorageKind::Sparse};
constexpr Pool kMd{"md", 64, 4, "n", 1.0, cube::StorageKind::Dense};
constexpr Pool kColdPools[] = {kAd, kAs, kBd, kBs, kMd};

std::string pool_id(const Pool& p, std::size_t i) {
  return numbered(p.prefix, i);
}

/// `n` distinct ids drawn from the union of `pools`.
std::vector<std::string> draw(Rng& rng, std::initializer_list<Pool> pools,
                              std::size_t n) {
  std::vector<std::string> all;
  for (const Pool& p : pools) {
    for (std::size_t i = 0; i < p.count; ++i) all.push_back(pool_id(p, i));
  }
  n = std::min(n, all.size());
  for (std::size_t i = 0; i < n; ++i) {
    std::swap(all[i], all[i + rng.below(all.size() - i)]);
  }
  all.resize(n);
  return all;
}

std::string call(const char* op, const std::vector<std::string>& args) {
  std::string s = std::string(op) + "(";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) s += ", ";
    s += args[i];
  }
  return s + ")";
}

std::uint64_t key_of(std::initializer_list<std::uint64_t> parts) {
  std::uint64_t k = 0x6a09e667f3bcc909ull;
  for (std::uint64_t p : parts) k = mix(k, p);
  return k;
}

constexpr const char* kReductions[] = {"mean", "min", "max"};

}  // namespace

std::vector<RunShape> setup_runs(Workload w, std::uint64_t seed) {
  std::vector<RunShape> runs;
  switch (w) {
    case Workload::HotReplay:
      for (std::size_t i = 0; i < kHotRuns; ++i) {
        RunShape s;
        s.name = numbered("h", i);
        s.metrics = 16;
        s.cnodes = 128;
        s.threads = 16;
        s.seed = mix(seed, 1000 + i);
        runs.push_back(std::move(s));
      }
      break;
    case Workload::ColdSeries:
      for (const Pool& p : kColdPools) {
        for (std::size_t i = 0; i < p.count; ++i) {
          RunShape s;
          s.name = pool_id(p, i);
          s.metric_prefix = p.metric_prefix;
          s.metrics = 8;
          s.cnodes = 128;
          s.fanout = p.fanout;
          s.threads = 64;
          s.fill = p.fill;
          s.storage = p.storage;
          s.seed = mix(seed, key_of({std::uint64_t(p.prefix[0]),
                                     std::uint64_t(p.prefix[1]), i}));
          runs.push_back(std::move(s));
        }
      }
      break;
    case Workload::IngestMixed:
      for (std::uint64_t k = 0; k < kIngestRetain; ++k) {
        runs.push_back(ingest_run(seed, k));
      }
      break;
  }
  return runs;
}

std::vector<std::string> hot_queries(std::uint64_t seed) {
  Rng rng(mix(seed, 7));
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  while (pairs.size() < 12) {
    const std::size_t a = rng.below(kHotRuns);
    const std::size_t b = rng.below(kHotRuns);
    if (a == b ||
        std::find(pairs.begin(), pairs.end(), std::pair{a, b}) != pairs.end())
      continue;
    pairs.emplace_back(a, b);
  }
  std::vector<std::string> out;
  for (const char* op : {"mean", "min", "max", "diff", "merge"}) {
    for (const auto& [a, b] : pairs) {
      out.push_back(call(op, {numbered("h", a),
                              numbered("h", b)}));
    }
  }
  return out;
}

ZipfPicker::ZipfPicker(std::size_t n, std::uint64_t seed) {
  double sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    cdf_.push_back(sum);
  }
  for (double& c : cdf_) c /= sum;
  order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) order_[i] = i;
  Rng rng(mix(seed, 11));
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order_[i - 1], order_[rng.below(i)]);
  }
}

std::size_t ZipfPicker::pick(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t rank =
      std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  return order_[rank];
}

Request cold_query(Rng& rng) {
  const std::size_t kind = rng.below(10);
  Request r;
  if (kind < 6) {
    const std::size_t op = rng.below(3);
    // Widths 8, 16 and 64 in proportion 4:3:1, so the rare wide
    // reductions do not starve the sample count.
    const std::size_t width_choice = rng.below(8);
    const std::size_t width = width_choice < 4   ? 8
                              : width_choice < 7 ? 16
                                                 : 64;
    const std::size_t mixture = rng.below(4);
    std::vector<std::string> ids;
    switch (mixture) {
      case 0:  // dense, identity metadata
        ids = draw(rng, {kAd}, width);
        break;
      case 1:  // dense and sparse, identity metadata
        ids = draw(rng, {kAd, kAs}, width);
        break;
      case 2:  // dense over two call trees: remapped operands
        ids = draw(rng, {kAd, kBd}, width);
        break;
      default:  // sparse over two call trees
        ids = draw(rng, {kAs, kBs}, width);
        break;
    }
    r.text = call(kReductions[op], ids);
    r.key = key_of({kind, op, width, mixture});
  } else if (kind < 8) {
    r.text = "diff(" + call("mean", draw(rng, {kAd, kAs}, 8)) + ", " +
             call("mean", draw(rng, {kBd, kBs}, 8)) + ")";
    r.key = key_of({kind});
  } else {
    r.text = "merge(" + call("mean", draw(rng, {kAd}, 4)) + ", " +
             call("mean", draw(rng, {kMd}, 4)) + ")";
    r.key = key_of({kind});
  }
  // Fold the exact text too: cold texts depend on the seed alone.
  for (char c : r.text) r.key = mix(r.key, static_cast<unsigned char>(c));
  return r;
}

RunShape ingest_run(std::uint64_t seed, std::uint64_t k) {
  RunShape s;
  s.name = numbered("ing", k);
  s.metrics = 8;
  s.cnodes = 64;
  s.threads = 16;
  s.seed = mix(seed, 5000 + k);
  s.attributes["batch"] = std::to_string(k / kIngestBatch);
  return s;
}

Request ingest_query(Rng& rng, std::uint64_t newest_batch) {
  const std::size_t kind = rng.below(4);
  const std::uint64_t off1 = rng.below(kIngestQueryWindow);
  const std::uint64_t off2 = rng.below(kIngestQueryWindow);
  auto sel = [&](std::uint64_t off) {
    const std::uint64_t b = newest_batch >= off ? newest_batch - off : 0;
    return "attr(batch=" + std::to_string(b) + ")";
  };
  Request r;
  r.key = key_of({kind, off1, off2});
  if (kind < 3) {
    // Two batches' selectors splice into one n-ary reduction.
    r.text = std::string(kReductions[kind]) + "(" + sel(off1) + ", " +
             sel(off2) + ")";
  } else {
    r.text = "diff(mean(" + sel(off1) + "), mean(" + sel(off2) + "))";
  }
  return r;
}

}  // namespace perfbench

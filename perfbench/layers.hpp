// Per-layer attribution of a traced run, and its export as a CUBE
// experiment (README.md, "Traced runs").
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace perfbench {

/// The src/ module a span belongs to.  Benchmark spans are named
/// "bench.<layer>.<call>"; library spans map by their first component
/// ("repo.*" and "io.*" -> io, "operator.*"/"phase.*"/"severity.*" ->
/// algebra, "pool.*" -> common, "client.*"/"protocol.*" -> server).
[[nodiscard]] std::string layer_of(std::string_view span_name);

struct LayerSummary {
  std::string layer;
  std::uint64_t spans = 0;
  /// Wall time inside the layer's outermost spans (nested spans of the
  /// same layer are not counted twice).
  double busy_ms = 0.0;
  /// Span time not covered by child spans, summed over the layer's spans.
  double self_ms = 0.0;
};

/// Summaries sorted by layer name.
[[nodiscard]] std::vector<LayerSummary> summarize_layers(
    const std::vector<cube::obs::ThreadSnapshot>& threads);

/// Writes `dir`/profile.cube (obs::export_self_profile), trace.json (Chrome
/// trace) and layers.json (the summaries), and lints the profile in
/// process.  Returns the number of error-level lint findings.
std::size_t export_trace(const std::filesystem::path& dir,
                         const std::string& name,
                         const std::vector<cube::obs::ThreadSnapshot>& threads,
                         const cube::obs::MetricsRegistry& registry);

}  // namespace perfbench

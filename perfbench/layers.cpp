#include "layers.hpp"

#include <fstream>
#include <map>

#include "common/error.hpp"
#include "lint/lint.hpp"
#include "obs/json_export.hpp"
#include "obs/report.hpp"
#include "obs/self_profile.hpp"

namespace perfbench {

std::string layer_of(std::string_view name) {
  if (name.rfind("bench.", 0) == 0) name.remove_prefix(6);
  const std::string_view head = name.substr(0, name.find('.'));
  if (head == "repo" || head == "io") return "io";
  if (head == "operator" || head == "phase" || head == "severity" ||
      head == "algebra")
    return "algebra";
  if (head == "pool") return "common";
  if (head == "client" || head == "protocol") return "server";
  return std::string(head);
}

std::vector<LayerSummary> summarize_layers(
    const std::vector<cube::obs::ThreadSnapshot>& threads) {
  std::map<std::string, LayerSummary> by_layer;
  for (const cube::obs::ThreadSnapshot& t : threads) {
    std::vector<std::string> layers;
    std::vector<double> child_ms(t.spans.size(), 0.0);
    layers.reserve(t.spans.size());
    for (const cube::obs::SpanRecord& s : t.spans) {
      layers.push_back(layer_of(s.name));
    }
    // Parents precede children, so one reverse pass accumulates child
    // time before each parent is visited.
    for (std::size_t i = t.spans.size(); i-- > 0;) {
      const cube::obs::SpanRecord& s = t.spans[i];
      const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      LayerSummary& sum = by_layer[layers[i]];
      sum.layer = layers[i];
      sum.spans += 1;
      sum.self_ms += ms - child_ms[i];
      const bool nested_in_layer =
          s.parent != cube::obs::kNoParent && layers[s.parent] == layers[i];
      if (!nested_in_layer) sum.busy_ms += ms;
      if (s.parent != cube::obs::kNoParent) child_ms[s.parent] += ms;
    }
  }
  std::vector<LayerSummary> out;
  for (auto& [name, sum] : by_layer) out.push_back(sum);
  return out;
}

std::size_t export_trace(const std::filesystem::path& dir,
                         const std::string& name,
                         const std::vector<cube::obs::ThreadSnapshot>& threads,
                         const cube::obs::MetricsRegistry& registry) {
  std::filesystem::create_directories(dir);
  cube::obs::SelfProfileOptions options;
  options.name = name;
  const cube::Experiment profile =
      cube::obs::export_self_profile(threads, registry, options);
  cube::obs::write_self_profile_file(profile, (dir / "profile.cube").string());

  std::ofstream chrome(dir / "trace.json");
  cube::obs::write_chrome_trace(chrome, threads);
  std::ofstream summary(dir / "layers.json");
  summary << "{";
  bool first = true;
  for (const LayerSummary& l : summarize_layers(threads)) {
    if (!first) summary << ",";
    first = false;
    cube::obs::write_json_string(summary, l.layer);
    summary << ":{\"spans\":";
    cube::obs::write_json_number(summary, l.spans);
    summary << ",\"busy_ms\":";
    cube::obs::write_json_number(summary, l.busy_ms);
    summary << ",\"self_ms\":";
    cube::obs::write_json_number(summary, l.self_ms);
    summary << "}";
  }
  summary << "}\n";
  chrome.close();
  summary.close();
  if (!chrome || !summary) {
    throw cube::IoError("cannot write trace export under " + dir.string());
  }

  cube::lint::DiagnosticSink sink;
  cube::lint::lint_experiment(profile, sink);
  return sink.errors();
}

}  // namespace perfbench

// Shared `[name=]file.cube` operand bindings for the file-based algebra
// CLIs (cube_calc, cube_viewer): the files an expression's bare
// identifiers refer to, loaded and bound as a query::ExperimentEnv.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "io/cube_format.hpp"
#include "query/planner.hpp"

namespace cube::cli {

struct Bindings {
  std::vector<std::pair<std::string, std::string>> inputs;  // name -> path
  std::vector<Experiment> experiments;  // parallel to inputs once loaded
  query::ExperimentEnv env;

  /// Records one argument: `name=file`, or a bare file bound to exp1,
  /// exp2, ... by its position among all bindings.
  void add(const std::string& arg) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      inputs.emplace_back("exp" + std::to_string(inputs.size() + 1), arg);
    } else {
      inputs.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    }
  }

  /// Loads every file and binds it.  A duplicate name is an error rather
  /// than a later file silently shadowing an earlier one; an experiment
  /// without a name takes its binding's.  Throws cube::Error.
  void load() {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      for (std::size_t j = i + 1; j < inputs.size(); ++j) {
        if (inputs[i].first == inputs[j].first) {
          throw Error("duplicate binding '" + inputs[i].first +
                      "': bound to '" + inputs[i].second + "' and to '" +
                      inputs[j].second + "'");
        }
      }
    }
    experiments.reserve(inputs.size());
    for (const auto& [name, path] : inputs) {
      experiments.push_back(read_experiment_file(path));
      if (experiments.back().name().empty()) {
        experiments.back().set_name(name);
      }
      env[name] = &experiments.back();
    }
  }
};

}  // namespace cube::cli

#include "query/planner.hpp"

#include <map>
#include <string_view>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"

namespace cube::query {

namespace {

/// Version tag mixed into every apply key; bump when the planner, an
/// operator's semantics, or the cache layout changes incompatibly.
constexpr std::string_view kCacheFormatVersion = "cube-query/v1";

bool is_cache_entry(const RepoEntry& entry) {
  return entry.attributes.count(kCacheKeyAttribute) != 0;
}

/// Operator options that influence result VALUES, rendered into the cache
/// key.  parallel_for is deliberately excluded: row-chunked execution is
/// bit-identical to sequential (see algebra/operators.hpp).
std::string options_tag(const OperatorOptions& options) {
  std::string tag = "sp=";
  tag += std::to_string(static_cast<int>(options.integration.system_policy));
  tag += ";cf=";
  tag += options.integration.callsite_file_matters ? '1' : '0';
  tag += ";kt=";
  tag += options.integration.keep_topology ? '1' : '0';
  tag += ";st=";
  tag += std::to_string(static_cast<int>(options.storage));
  return tag;
}

class Planner {
 public:
  // Selector resolution iterates a SNAPSHOT of the index: the daemon
  // plans while other sessions store derived results into the same
  // repository, and an entries() reference could reallocate mid-walk.
  Planner(const ExperimentRepository& repo, const OperatorOptions& options)
      : repo_(&repo), entries_(repo.entries_snapshot()), options_(options) {}
  Planner(const ExperimentEnv& env, const OperatorOptions& options)
      : env_(&env), options_(options) {}

  QueryPlan run(const QueryExpr& expr) {
    const std::vector<std::size_t> roots = plan_node(expr);
    if (roots.size() != 1) {
      throw OperationError(
          "query root " + expr.str() + " resolves to " +
          std::to_string(roots.size()) +
          " experiments; wrap the selector in mean/min/max/merge to "
          "reduce it to one");
    }
    plan_.root = roots[0];
    return std::move(plan_);
  }

 private:
  /// Plans one expression; returns the DAG nodes it stands for (one node,
  /// except for selectors, which stand for their whole match list).
  std::vector<std::size_t> plan_node(const QueryExpr& expr) {
    if (env_ != nullptr && expr.kind() != QueryExpr::Kind::Apply) {
      return {env_node(expr)};
    }
    switch (expr.kind()) {
      case QueryExpr::Kind::Ref:
      case QueryExpr::Kind::Id:
        return {load_node(find_id(expr))};
      case QueryExpr::Kind::Attr:
      case QueryExpr::Kind::Series: {
        std::vector<std::size_t> nodes;
        for (const RepoEntry* entry : match_selector(expr)) {
          nodes.push_back(load_node(*entry));
        }
        return nodes;
      }
      case QueryExpr::Kind::Apply:
        return {apply_node(expr)};
    }
    throw OperationError("unreachable query expression kind");
  }

  std::size_t apply_node(const QueryExpr& expr) {
    std::vector<std::size_t> operands;
    for (const auto& arg : expr.args()) {
      const std::vector<std::size_t> sub = plan_node(*arg);
      operands.insert(operands.end(), sub.begin(), sub.end());
    }
    const bool binary = expr.op() == QueryExpr::Op::Diff ||
                        expr.op() == QueryExpr::Op::Merge;
    if (binary && operands.size() != 2) {
      throw OperationError(
          std::string(op_name(expr.op())) + " expects 2 operands, got " +
          std::to_string(operands.size()) + " after selector expansion in " +
          expr.str());
    }
    if (operands.empty()) {
      throw OperationError(std::string(op_name(expr.op())) +
                           " expects >= 1 operand in " + expr.str());
    }

    std::string canonical = op_name(expr.op());
    canonical += '(';
    for (std::size_t i = 0; i < operands.size(); ++i) {
      if (i > 0) canonical += ", ";
      canonical += plan_.nodes[operands[i]].canonical;
    }
    canonical += ')';
    const auto known = cse_.find(canonical);
    if (known != cse_.end()) {
      ++plan_.cse_reused;
      return known->second;
    }

    Fnv1a key;
    key.update(kCacheFormatVersion)
        .update("|")
        .update(op_name(expr.op()))
        .update("|")
        .update(options_tag(options_));
    for (const std::size_t child : operands) {
      key.update(plan_.nodes[child].key);
    }

    PlanNode node;
    node.kind = PlanNode::Kind::Apply;
    node.op = expr.op();
    node.args = std::move(operands);
    node.canonical = canonical;
    node.key = key.value();
    plan_.nodes.push_back(std::move(node));
    const std::size_t index = plan_.nodes.size() - 1;
    cse_.emplace(std::move(canonical), index);
    return index;
  }

  const RepoEntry& find_id(const QueryExpr& expr) {
    for (const RepoEntry& entry : entries_) {
      if (entry.id == expr.name()) return entry;
    }
    throw Error("repository has no experiment with id '" + expr.name() +
                "' (referenced by " + expr.str() + ")");
  }

  std::vector<const RepoEntry*> match_selector(const QueryExpr& expr) {
    std::vector<const RepoEntry*> matches;
    for (const RepoEntry& entry : entries_) {
      if (is_cache_entry(entry)) continue;
      if (expr.kind() == QueryExpr::Kind::Series) {
        if (entry.id.rfind(expr.name(), 0) == 0) matches.push_back(&entry);
        continue;
      }
      bool all = true;
      for (const auto& [key, value] : expr.pairs()) {
        const auto it = entry.attributes.find(key);
        if (it == entry.attributes.end() || it->second != value) {
          all = false;
          break;
        }
      }
      if (all) matches.push_back(&entry);
    }
    if (matches.empty()) {
      throw OperationError("selector " + expr.str() +
                           " matches no experiment in '" +
                           repo_->directory().string() + "'");
    }
    return matches;
  }

  std::size_t load_node(const RepoEntry& entry) {
    const auto known = loads_.find(entry.id);
    if (known != loads_.end()) {
      ++plan_.cse_reused;
      return known->second;
    }
    PlanNode node;
    node.kind = PlanNode::Kind::Load;
    node.operand.id = entry.id;
    node.operand.path = repo_->directory() / entry.file;
    node.operand.format = entry.format;
    node.operand.digest = digest_file(node.operand.path);
    std::error_code ec;
    node.operand.bytes = std::filesystem::file_size(node.operand.path, ec);
    if (ec) node.operand.bytes = 0;
    node.canonical =
        "id:" + entry.id + "@" + digest_hex(node.operand.digest);
    if (!entry.sev.empty() &&
        !parse_hex64(entry.sev, node.operand.sev_digest)) {
      // Not part of the key (the file digest already covers the <sevref>);
      // recorded so the static analyzer can stat the blob header.
      node.operand.sev_digest = 0;
    }
    if (!entry.meta.empty() &&
        parse_hex64(entry.meta, node.operand.meta_digest)) {
      // Blob-backed entry: the file holds only a digest reference, so the
      // metadata's own structural digest joins the key.  Legacy inline
      // entries keep the bare file digest — their pre-refactor cache keys
      // stay valid.
      node.key = Fnv1a()
                     .update(node.operand.digest)
                     .update(node.operand.meta_digest)
                     .value();
    } else {
      node.key = node.operand.digest;
    }
    return push_load(std::move(node));
  }

  /// Env mode: a bare identifier borrows the experiment bound to it.
  std::size_t env_node(const QueryExpr& expr) {
    if (expr.kind() != QueryExpr::Kind::Ref) {
      throw OperationError("selector " + expr.str() +
                           " requires a repository to resolve; evaluate it "
                           "with the query engine (cube_query --repo)");
    }
    const auto known = loads_.find(expr.name());
    if (known != loads_.end()) {
      ++plan_.cse_reused;
      return known->second;
    }
    const auto bound = env_->find(expr.name());
    if (bound == env_->end() || bound->second == nullptr) {
      throw OperationError("unbound experiment name '" + expr.name() + "'");
    }
    PlanNode node;
    node.operand.id = expr.name();
    node.operand.borrowed = bound->second;
    node.operand.meta_digest = bound->second->metadata().digest();
    node.canonical = expr.name();
    node.key = Fnv1a()
                   .update(expr.name())
                   .update(node.operand.meta_digest)
                   .value();
    return push_load(std::move(node));
  }

  std::size_t push_load(PlanNode node) {
    const std::size_t index = plan_.nodes.size();
    loads_.emplace(node.operand.id, index);
    plan_.nodes.push_back(std::move(node));
    return index;
  }

  const ExperimentRepository* repo_ = nullptr;  // repository mode
  const ExperimentEnv* env_ = nullptr;          // env mode
  const std::vector<RepoEntry> entries_;
  const OperatorOptions& options_;
  QueryPlan plan_;
  std::map<std::string, std::size_t> cse_;   // canonical -> node
  std::map<std::string, std::size_t> loads_;  // id or binding -> node
};

}  // namespace

QueryPlan plan_query(const QueryExpr& expr, const ExperimentRepository& repo,
                     const OperatorOptions& options) {
  return Planner(repo, options).run(expr);
}

QueryPlan plan_query(const QueryExpr& expr, const ExperimentEnv& env,
                     const OperatorOptions& options) {
  return Planner(env, options).run(expr);
}

}  // namespace cube::query

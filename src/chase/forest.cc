#include "chase/forest.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "model/printer.h"
#include "obs/metrics.h"

namespace gchase {

StatusOr<ChaseForest> ChaseForest::Build(const ChaseRun& run) {
  if (run.provenance().size() != run.instance().size()) {
    return Status::FailedPrecondition(
        "ChaseForest requires a provenance-tracked run");
  }
  ChaseForest forest(run);
  const std::vector<AtomProvenance>& provenance = run.provenance();
  forest.nodes_.resize(provenance.size());
  for (AtomId id = 0; id < provenance.size(); ++id) {
    ForestNode& node = forest.nodes_[id];
    node.parent = provenance[id].parent;
    node.depth = provenance[id].depth;
    if (node.parent != kNoAtomId) {
      forest.nodes_[node.parent].children.push_back(id);
    }
  }
  return forest;
}

ForestStats ChaseForest::Stats() const {
  ForestStats stats;
  const Instance& instance = run_.instance();

  for (AtomId id = 0; id < nodes_.size(); ++id) {
    const ForestNode& node = nodes_[id];
    if (node.parent == kNoAtomId) ++stats.roots;
    stats.max_depth = std::max(stats.max_depth, node.depth);
    stats.max_branching = std::max(
        stats.max_branching, static_cast<uint32_t>(node.children.size()));
  }

  // Guardedness invariant over the recorded triggers.
  const RuleSet& rules = run_.rules();
  const TriggerLog& triggers = run_.triggers();
  for (uint32_t i = 0; i < triggers.size(); ++i) {
    const TriggerView trigger = triggers[i];
    const Tgd& rule = rules.rule(trigger.rule);
    const uint32_t guard = rule.guard_index().value_or(0);
    std::unordered_set<uint32_t> guard_terms;
    for (Term t : instance.atom(trigger.body_atoms[guard]).args) {
      guard_terms.insert(t.raw());
    }
    for (AtomId body : trigger.body_atoms) {
      for (Term t : instance.atom(body).args) {
        if (!t.IsConstant() && guard_terms.count(t.raw()) == 0) {
          stats.guarded_invariant = false;
        }
      }
    }
  }

  // Bags: term -> atoms containing it; bag(node) = atoms whose terms all
  // occur in the node's atom (0-ary atoms belong to every bag).
  std::unordered_map<uint32_t, std::vector<AtomId>> atoms_with_term;
  uint32_t zero_ary = 0;
  for (AtomId id = 0; id < instance.size(); ++id) {
    const AtomView atom = instance.atom(id);
    if (atom.args.empty()) {
      ++zero_ary;
      continue;
    }
    std::unordered_set<uint32_t> seen;
    for (Term t : atom.args) {
      if (seen.insert(t.raw()).second) atoms_with_term[t.raw()].push_back(id);
    }
  }
  for (AtomId id = 0; id < nodes_.size(); ++id) {
    const AtomView atom = instance.atom(id);
    std::unordered_set<uint32_t> node_terms;
    for (Term t : atom.args) node_terms.insert(t.raw());
    std::unordered_set<AtomId> bag;
    for (uint32_t term : node_terms) {
      auto it = atoms_with_term.find(term);
      if (it == atoms_with_term.end()) continue;
      for (AtomId candidate : it->second) {
        if (bag.count(candidate) != 0) continue;
        bool inside = true;
        for (Term t : instance.atom(candidate).args) {
          if (node_terms.count(t.raw()) == 0) {
            inside = false;
            break;
          }
        }
        if (inside) bag.insert(candidate);
      }
    }
    stats.max_bag_size = std::max(
        stats.max_bag_size, static_cast<uint32_t>(bag.size()) + zero_ary);
  }
  return stats;
}

std::string ChaseForest::ToDot(const Vocabulary& vocabulary) const {
  const Instance& instance = run_.instance();
  std::string out = "digraph chase_forest {\n  rankdir=TB;\n";
  for (AtomId id = 0; id < nodes_.size(); ++id) {
    out += "  a" + std::to_string(id) + " [label=\"" +
           AtomToString(instance.atom(id).ToAtom(), vocabulary) + "\"";
    if (nodes_[id].parent == kNoAtomId) out += ", shape=box";
    out += "];\n";
  }
  for (AtomId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].parent != kNoAtomId) {
      out += "  a" + std::to_string(nodes_[id].parent) + " -> a" +
             std::to_string(id) + ";\n";
    }
  }
  out += "}\n";
  return out;
}

void PublishForestMetrics(const ForestStats& stats,
                          MetricsRegistry* registry) {
  MetricsRegistry& sink =
      registry != nullptr ? *registry : MetricsRegistry::Global();
  sink.Gauge("forest.roots")->SetMax(static_cast<int64_t>(stats.roots));
  sink.Gauge("forest.max_depth")->SetMax(static_cast<int64_t>(stats.max_depth));
  sink.Gauge("forest.max_branching")
      ->SetMax(static_cast<int64_t>(stats.max_branching));
  sink.Gauge("forest.max_bag_size")
      ->SetMax(static_cast<int64_t>(stats.max_bag_size));
  sink.Gauge("forest.guarded_invariant")->Set(stats.guarded_invariant ? 1 : 0);
}

}  // namespace gchase

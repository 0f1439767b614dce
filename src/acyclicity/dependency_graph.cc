#include "acyclicity/dependency_graph.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "base/check.h"
#include "base/scc.h"

namespace gchase {

DependencyGraph DependencyGraph::Build(const RuleSet& rules,
                                       const Schema& schema, bool extended) {
  DependencyGraph graph;
  graph.schema_ = &schema;
  graph.offsets_.resize(schema.num_predicates());
  uint32_t offset = 0;
  for (PredicateId p = 0; p < schema.num_predicates(); ++p) {
    graph.offsets_[p] = offset;
    offset += schema.arity(p);
  }
  graph.num_nodes_ = offset;
  graph.adjacency_.resize(offset);

  for (const Tgd& rule : rules.rules()) {
    // Occurrence lists per variable.
    std::vector<std::vector<uint32_t>> body_nodes(rule.num_variables());
    std::vector<std::vector<uint32_t>> head_nodes(rule.num_variables());
    std::vector<uint32_t> existential_nodes;
    for (const Atom& atom : rule.body()) {
      for (uint32_t i = 0; i < atom.arity(); ++i) {
        Term t = atom.args[i];
        if (t.IsVariable()) {
          body_nodes[t.index()].push_back(
              graph.NodeOf(Position{atom.predicate, i}));
        }
      }
    }
    for (const Atom& atom : rule.head()) {
      for (uint32_t i = 0; i < atom.arity(); ++i) {
        Term t = atom.args[i];
        if (!t.IsVariable()) continue;
        uint32_t node = graph.NodeOf(Position{atom.predicate, i});
        if (rule.IsExistential(t.index())) {
          existential_nodes.push_back(node);
        } else {
          head_nodes[t.index()].push_back(node);
        }
      }
    }
    for (VarId x : rule.universal_variables()) {
      const bool emits_special = extended || rule.IsFrontier(x);
      for (uint32_t from : body_nodes[x]) {
        for (uint32_t to : head_nodes[x]) {
          graph.adjacency_[from].push_back(
              static_cast<uint32_t>(graph.edges_.size()));
          graph.edges_.push_back(Edge{from, to, /*special=*/false});
        }
        if (emits_special) {
          for (uint32_t to : existential_nodes) {
            graph.adjacency_[from].push_back(
                static_cast<uint32_t>(graph.edges_.size()));
            graph.edges_.push_back(Edge{from, to, /*special=*/true});
          }
        }
      }
    }
  }
  return graph;
}

Position DependencyGraph::PositionOf(uint32_t node) const {
  GCHASE_CHECK(schema_ != nullptr && node < num_nodes_);
  // offsets_ is ascending; find the owning predicate.
  uint32_t pred = static_cast<uint32_t>(
      std::upper_bound(offsets_.begin(), offsets_.end(), node) -
      offsets_.begin() - 1);
  return Position{pred, node - offsets_[pred]};
}

std::vector<uint32_t> DependencyGraph::ComputeSccIds() const {
  // The successors of node v, in adjacency order:
  // targets[first[v] .. first[v + 1]).
  std::vector<uint32_t> first(num_nodes_ + 1, 0);
  std::vector<uint32_t> targets;
  targets.reserve(edges_.size());
  for (uint32_t node = 0; node < num_nodes_; ++node) {
    for (uint32_t e : adjacency_[node]) targets.push_back(edges_[e].to);
    first[node + 1] = static_cast<uint32_t>(targets.size());
  }
  return StronglyConnectedComponents(first, targets);
}

std::optional<std::vector<uint32_t>> DependencyGraph::FindDangerousCycle()
    const {
  std::vector<uint32_t> scc = ComputeSccIds();
  for (const Edge& edge : edges_) {
    if (!edge.special || scc[edge.from] != scc[edge.to]) continue;
    // Close the cycle: BFS from edge.to back to edge.from within the SCC.
    std::vector<uint32_t> parent(num_nodes_, 0xffffffffu);
    std::deque<uint32_t> queue;
    queue.push_back(edge.to);
    parent[edge.to] = edge.to;
    while (!queue.empty()) {
      uint32_t node = queue.front();
      queue.pop_front();
      if (node == edge.from) break;
      for (uint32_t e : adjacency_[node]) {
        uint32_t target = edges_[e].to;
        if (scc[target] != scc[edge.from]) continue;
        if (parent[target] != 0xffffffffu) continue;
        parent[target] = node;
        queue.push_back(target);
      }
    }
    GCHASE_CHECK(parent[edge.from] != 0xffffffffu);
    std::vector<uint32_t> path;  // edge.from back to edge.to, reversed below
    for (uint32_t node = edge.from;; node = parent[node]) {
      path.push_back(node);
      if (node == edge.to) break;
    }
    std::reverse(path.begin(), path.end());  // edge.to ... edge.from
    std::vector<uint32_t> cycle;
    cycle.push_back(edge.from);
    cycle.insert(cycle.end(), path.begin(), path.end());  // closes on from
    return cycle;
  }
  return std::nullopt;
}

std::optional<uint32_t> DependencyGraph::Rank() const {
  std::vector<uint32_t> scc = ComputeSccIds();
  uint32_t num_sccs = 0;
  for (uint32_t id : scc) num_sccs = std::max(num_sccs, id + 1);
  // Dangerous cycle check + rank DP in one pass: Tarjan ids are
  // reverse-topological, so processing SCCs in descending id order visits
  // sources first.
  for (const Edge& edge : edges_) {
    if (edge.special && scc[edge.from] == scc[edge.to]) return std::nullopt;
  }
  std::vector<uint32_t> rank(num_sccs, 0);
  // Group edges by source SCC id, then relax in topological order.
  std::vector<std::vector<const Edge*>> out(num_sccs);
  for (const Edge& edge : edges_) {
    if (scc[edge.from] != scc[edge.to]) {
      out[scc[edge.from]].push_back(&edge);
    }
  }
  // Descending SCC id is a topological order (Tarjan numbers sinks first).
  for (uint32_t s = num_sccs; s-- > 0;) {
    for (const Edge* edge : out[s]) {
      uint32_t weight = edge->special ? 1u : 0u;
      uint32_t target = scc[edge->to];
      rank[target] = std::max(rank[target], rank[s] + weight);
    }
  }
  uint32_t max_rank = 0;
  for (uint32_t r : rank) max_rank = std::max(max_rank, r);
  return max_rank;
}

namespace {

AcyclicityReport ReportFor(const DependencyGraph& graph) {
  AcyclicityReport report;
  std::optional<std::vector<uint32_t>> cycle = graph.FindDangerousCycle();
  report.acyclic = !cycle.has_value();
  if (cycle.has_value()) {
    report.dangerous_cycle.reserve(cycle->size());
    for (uint32_t node : *cycle) {
      report.dangerous_cycle.push_back(graph.PositionOf(node));
    }
  }
  return report;
}

}  // namespace

AcyclicityReport CheckWeakAcyclicity(const RuleSet& rules,
                                     const Schema& schema) {
  return ReportFor(DependencyGraph::Build(rules, schema, /*extended=*/false));
}

AcyclicityReport CheckRichAcyclicity(const RuleSet& rules,
                                     const Schema& schema) {
  return ReportFor(DependencyGraph::Build(rules, schema, /*extended=*/true));
}

}  // namespace gchase

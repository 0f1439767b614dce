#ifndef GCHASE_BASE_SCC_H_
#define GCHASE_BASE_SCC_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace gchase {

/// Strongly connected components of the directed graph on nodes
/// [0, first.size() - 1) whose node v has the successors
/// targets[first[v] .. first[v + 1]). Iterative Tarjan, O(nodes + edges).
/// Returns each node's component id. Ids are numbered in completion
/// order, so they are reverse-topological: an edge between two
/// components runs from the higher id to the lower one.
inline std::vector<uint32_t> StronglyConnectedComponents(
    std::span<const uint32_t> first, std::span<const uint32_t> targets) {
  constexpr uint32_t kUnvisited = 0xffffffffu;
  const uint32_t n = static_cast<uint32_t>(first.size()) - 1;
  std::vector<uint32_t> index(n, kUnvisited);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<uint32_t> component(n, 0);
  std::vector<uint32_t> stack;  // nodes of the components still open
  std::vector<uint32_t> next;   // per node: its next successor to visit
  std::vector<uint32_t> path;   // the DFS path (the recursion, unrolled)
  next.assign(first.begin(), first.end() - 1);
  uint32_t visited = 0;
  uint32_t components = 0;
  const auto visit = [&](uint32_t v) {
    index[v] = lowlink[v] = visited++;
    stack.push_back(v);
    on_stack[v] = true;
    path.push_back(v);
  };
  for (uint32_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    visit(root);
    while (!path.empty()) {
      const uint32_t v = path.back();
      if (next[v] < first[v + 1]) {
        const uint32_t w = targets[next[v]++];
        if (index[w] == kUnvisited) {
          visit(w);
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      path.pop_back();
      if (!path.empty()) {
        lowlink[path.back()] = std::min(lowlink[path.back()], lowlink[v]);
      }
      if (lowlink[v] != index[v]) continue;
      // v roots a component: the stack from v up.
      uint32_t w;
      do {
        w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        component[w] = components;
      } while (w != v);
      ++components;
    }
  }
  return component;
}

}  // namespace gchase

#endif  // GCHASE_BASE_SCC_H_

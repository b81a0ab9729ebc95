#include "graph/connectivity.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace mts {

std::uint32_t SccResult::largest() const {
  const auto all = sizes();
  const auto it = std::max_element(all.begin(), all.end());
  return it == all.end() ? 0 : static_cast<std::uint32_t>(it - all.begin());
}

std::vector<std::size_t> SccResult::sizes() const {
  std::vector<std::size_t> out(num_components, 0);
  for (auto c : component) ++out[c];
  return out;
}

SccResult strongly_connected_components(const DiGraph& g, const EdgeFilter* filter) {
  require(g.finalized(), "scc: graph not finalized");
  const std::size_t n = g.num_nodes();
  constexpr std::uint32_t kUnvisited = ~0u;

  SccResult result;
  result.component.assign(n, kUnvisited);

  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> lowlink(n, 0);
  std::vector<std::uint8_t> on_stack(n, 0);
  std::vector<std::uint32_t> scc_stack;
  std::uint32_t next_index = 0;

  // Iterative Tarjan: frames carry (node, position in its out-edge list).
  struct Frame {
    NodeId node;
    std::size_t edge_pos;
  };
  std::vector<Frame> call_stack;

  for (NodeId root : g.nodes()) {
    if (index[root.value()] != kUnvisited) continue;
    call_stack.push_back({root, 0});
    while (!call_stack.empty()) {
      auto& frame = call_stack.back();
      const NodeId u = frame.node;
      if (frame.edge_pos == 0) {
        index[u.value()] = lowlink[u.value()] = next_index++;
        scc_stack.push_back(u.value());
        on_stack[u.value()] = 1;
      }
      bool descended = false;
      const auto out = g.out_edges(u);
      while (frame.edge_pos < out.size()) {
        const EdgeId e = out[frame.edge_pos++];
        if (!edge_alive(filter, e)) continue;
        const NodeId v = g.edge_to(e);
        if (index[v.value()] == kUnvisited) {
          call_stack.push_back({v, 0});
          descended = true;
          break;
        }
        if (on_stack[v.value()]) {
          lowlink[u.value()] = std::min(lowlink[u.value()], index[v.value()]);
        }
      }
      if (descended) continue;

      if (lowlink[u.value()] == index[u.value()]) {
        const auto comp = static_cast<std::uint32_t>(result.num_components++);
        std::uint32_t popped;
        do {
          popped = scc_stack.back();
          scc_stack.pop_back();
          on_stack[popped] = 0;
          result.component[popped] = comp;
        } while (popped != u.value());
      }
      call_stack.pop_back();
      if (!call_stack.empty()) {
        auto& parent = call_stack.back();
        lowlink[parent.node.value()] =
            std::min(lowlink[parent.node.value()], lowlink[u.value()]);
      }
    }
  }
  return result;
}

}  // namespace mts

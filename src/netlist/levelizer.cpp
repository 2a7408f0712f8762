#include "netlist/levelizer.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace scandiag {

Levelization levelize(const Netlist& netlist) {
  const std::size_t n = netlist.gateCount();
  Levelization out;
  out.level.assign(n, 0);
  out.order.reserve(netlist.combGateCount());

  // Kahn's algorithm over combinational gates only. A DFF's D-input edge is a
  // *sequential* edge: the DFF's output does not depend combinationally on it,
  // so DFFs contribute no in-degree and never enter the order.
  std::vector<std::size_t> pending(n, 0);
  std::vector<GateId> ready;
  for (GateId id = 0; id < n; ++id) {
    const Gate& g = netlist.gate(id);
    if (isSourceType(g.type)) continue;
    pending[id] = g.fanins.size();
    std::size_t resolved = 0;
    for (GateId f : g.fanins) {
      SCANDIAG_REQUIRE(f != kInvalidGate, "dangling fanin during levelization");
      if (isSourceType(netlist.gate(f).type)) ++resolved;
    }
    pending[id] -= resolved;
    if (pending[id] == 0) ready.push_back(id);
  }

  const auto& fanouts = netlist.fanouts();
  while (!ready.empty()) {
    const GateId id = ready.back();
    ready.pop_back();
    std::size_t lvl = 0;
    for (GateId f : netlist.gate(id).fanins) lvl = std::max(lvl, out.level[f] + 1);
    out.level[id] = lvl;
    out.maxLevel = std::max(out.maxLevel, lvl);
    out.order.push_back(id);
    for (GateId user : fanouts[id]) {
      if (isSourceType(netlist.gate(user).type)) continue;  // DFF D edge is sequential
      if (--pending[user] == 0) ready.push_back(user);
    }
  }

  if (out.order.size() != netlist.combGateCount()) {
    for (GateId id = 0; id < n; ++id) {
      if (!isSourceType(netlist.gate(id).type) && pending[id] != 0)
        SCANDIAG_REQUIRE(false, "combinational cycle through gate " + netlist.gateName(id));
    }
  }
  // Gates at lower levels can appear after higher ones with a stack; bucket by
  // level so cone-restricted evaluation can binary-slice later. A counting
  // sort keeps the pop order inside each level, the order a stable sort by
  // level gives, in linear time.
  std::vector<std::size_t> levelStart(out.maxLevel + 2, 0);
  for (GateId id : out.order) ++levelStart[out.level[id] + 1];
  for (std::size_t l = 1; l < levelStart.size(); ++l) levelStart[l] += levelStart[l - 1];
  std::vector<GateId> byLevel(out.order.size());
  for (GateId id : out.order) byLevel[levelStart[out.level[id]]++] = id;
  out.order = std::move(byLevel);
  return out;
}

}  // namespace scandiag

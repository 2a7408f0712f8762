#include "netlist/cone_analysis.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace scandiag {

FaultCone computeCone(const Netlist& netlist, const Levelization& lev, GateId site) {
  SCANDIAG_REQUIRE(site < netlist.gateCount(), "cone site out of range");
  FaultCone cone;
  const std::size_t numDffs = netlist.dffs().size();
  cone.reachableDffs = BitVector(numDffs);

  // DFF ordinal lookup.
  std::vector<std::size_t> dffOrdinal(netlist.gateCount(), static_cast<std::size_t>(-1));
  for (std::size_t k = 0; k < numDffs; ++k) dffOrdinal[netlist.dffs()[k]] = k;

  std::vector<bool> visited(netlist.gateCount(), false);
  std::vector<GateId> stack{site};
  visited[site] = true;
  const auto& fanouts = netlist.fanouts();
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    if (!isSourceType(netlist.gate(g).type)) cone.gates.push_back(g);
    for (GateId user : fanouts[g]) {
      if (netlist.gate(user).type == GateType::Dff) {
        // Error is captured; no same-cycle propagation through a DFF. Marked
        // even when user == site: a scan cell whose Q-cone feeds back to its
        // own D captures its own fault effect.
        cone.reachableDffs.set(dffOrdinal[user]);
        visited[user] = true;
        continue;
      }
      if (visited[user]) continue;
      visited[user] = true;
      stack.push_back(user);
    }
  }
  // The site gate itself is in cone.gates only if combinational; a faulty
  // source (PI / scan cell output stuck) needs no re-evaluation of itself.
  std::sort(cone.gates.begin(), cone.gates.end(),
            [&](GateId a, GateId b) {
              return lev.level[a] != lev.level[b] ? lev.level[a] < lev.level[b] : a < b;
            });
  for (GateId out : netlist.outputs()) {
    if (visited[out]) cone.reachableOutputs.push_back(out);
  }
  return cone;
}

}  // namespace scandiag

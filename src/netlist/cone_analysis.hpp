// Fault-cone (forward reachability) analysis.
//
// The output cone of a fault site is the set of gates a value change at the
// site can reach through combinational paths, and — what diagnosis cares
// about — the set of DFFs whose D input lies in that cone: only those scan
// cells can ever capture an error from the fault. Propagation stops at DFFs
// because full-scan BIST captures exactly one functional cycle per pattern.
//
// Used for (a) cone-restricted faulty re-simulation in the fault simulator
// and (b) the clustering statistics that motivate interval-based partitioning.
#pragma once

#include <vector>

#include "common/bitvector.hpp"
#include "netlist/levelizer.hpp"
#include "netlist/netlist.hpp"

namespace scandiag {

struct FaultCone {
  /// Combinational gates whose value can differ, in evaluation (level) order.
  std::vector<GateId> gates;
  /// reachableDffs.test(k) == DFF ordinal k (index into netlist.dffs()) can
  /// capture an error.
  BitVector reachableDffs;
  /// Primary-output gates in the cone (observed on chip pins, not scan cells).
  std::vector<GateId> reachableOutputs;
};

/// Cone of a value change on the *output* of gate `site` (any gate kind; for
/// a source gate the cone is its combinational fanout).
FaultCone computeCone(const Netlist& netlist, const Levelization& lev, GateId site);

}  // namespace scandiag

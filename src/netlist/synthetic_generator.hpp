// Deterministic synthetic circuit generator with locality-controlled structure.
//
// Substitute for the original ISCAS-89 netlists (DESIGN.md §5): for a given
// size profile it builds a levelized random sequential circuit in which gates
// draw fanins from structurally nearby signals. "Nearby" is defined on a
// one-dimensional position axis shared with the scan-cell ordering, so a
// fault's output cone reaches a *clustered* run of next-state flops — the
// physical phenomenon (paper §3) whose exploitation is the point of
// interval-based partitioning. A small global-wire probability reproduces the
// occasional long-range signal (resets, control) that de-clusters some cones.
//
// The generator is fully deterministic: a profile → an identical netlist on
// every platform. The model's parameters are constants of
// synthetic_generator.cpp.
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/iscas89_profiles.hpp"
#include "netlist/netlist.hpp"

namespace scandiag {

/// Builds a circuit matching `profile`'s PI/PO/DFF/gate counts exactly.
/// Postconditions: validate() passes; every DFF has a D driver; every
/// combinational gate has at least one observing path (PO or DFF).
Netlist generateCircuit(const Iscas89Profile& profile);

/// generateCircuit(iscas89Profile(name)).
Netlist generateNamedCircuit(std::string_view name);

namespace detail {

/// A signal placed on the generator's position axis.
struct Slot {
  GateId id;
  double pos;
};

/// Index std::lower_bound gives for `v` over `slots` sorted by pos: the first
/// slot with pos >= v. Slot positions are stratified on [0, 1), so the search
/// starts at v × size and gallops outward to the exact index: O(1) expected
/// steps, O(log n) at worst, correct for any sorted input and any v.
std::size_t slotLowerBound(const std::vector<Slot>& slots, double v);

/// Index std::upper_bound gives for `v`: the first slot with pos > v.
std::size_t slotUpperBound(const std::vector<Slot>& slots, double v);

}  // namespace detail

}  // namespace scandiag

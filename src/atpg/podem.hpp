// PODEM — deterministic test pattern generation for single stuck-at faults.
//
// The paper drives diagnosis with pseudorandom PRPG patterns; a deterministic
// ATPG substrate lets the benches ask how diagnosis behaves under the *other*
// industrial regime (compact deterministic test sets detect each fault with
// far fewer patterns, so each fault produces far fewer error bits — see
// bench_ext_atpg). It also provides exact testability data: a fault PODEM
// proves untestable can never produce failing cells.
//
// Classic PODEM (Goel 1981) over the full-scan combinational frame:
//  * values are pairs of 3-valued planes (good, faulty); (1,0) = D, (0,1) = D̄;
//  * decisions are made only at sources (PIs and scan cells), chosen by
//    backtracing the current objective through X-valued gates;
//  * the objective is fault activation first, then D-frontier propagation;
//  * implication is event-driven: both planes persist across the steps of
//    one generate() call (a decision push, a flip or a pop), and a step
//    re-evaluates, in level order, only the fanout of the sources it changed,
//    stopping at gates whose two values did not change. The faulty plane is
//    evaluated only inside the fault site's fanout cone (elsewhere it equals
//    the good plane). The planes are a pure function of the source assignment
//    (with the faulty plane forced at the fault site), so the search is the
//    one full re-evaluation would make;
//  * the D-frontier is a bitset over positions in the evaluation order, and
//    the observation test a count of observation lines carrying a D; only
//    gates whose values changed, and their fanouts, are re-examined;
//  * success when a D/D̄ reaches an observation point (PO or a DFF D input);
//    exhausting the decision tree (within the backtrack limit) proves the
//    fault untestable.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bitvector.hpp"
#include "sim/fault_simulator.hpp"

namespace scandiag {

/// A generated test: source assignments with explicit care bits. Unassigned
/// (X) sources may take any value without losing detection.
struct TestCube {
  /// Indexed by GateId; meaningful only for source gates with care set.
  BitVector care;
  BitVector value;

  /// Materializes the cube into pattern `t` of `patterns`, filling X bits
  /// from `fillSeed`'s bit stream (deterministic).
  void applyTo(PatternSet& patterns, std::size_t t, const Netlist& netlist,
               std::uint64_t fillSeed) const;
};

struct AtpgStats {
  std::size_t decisions = 0;
  std::size_t backtracks = 0;
};

enum class AtpgOutcome {
  Detected,     // cube generated
  Untestable,   // decision tree exhausted: no test exists
  Aborted,      // backtrack limit hit
};

struct AtpgResult {
  AtpgOutcome outcome = AtpgOutcome::Aborted;
  TestCube cube;  // valid iff outcome == Detected
  AtpgStats stats;
};

/// generate() and generateCompactSet() are const and keep all search state
/// local, so one instance serves concurrent callers.
class PodemAtpg {
 public:
  explicit PodemAtpg(const Netlist& netlist);
  /// Shares `lev`, which must be levelize(netlist) — e.g. the levelization of
  /// a FaultSimulator built on the same netlist.
  PodemAtpg(const Netlist& netlist, std::shared_ptr<const Levelization> lev);

  /// Generates a test observing the fault at a scan cell or primary output.
  AtpgResult generate(const FaultSite& fault, std::size_t backtrackLimit = 5000) const;

  /// Deterministic test set for a fault list with reverse-order fault
  /// dropping: later faults already detected by earlier cubes get no new
  /// cube. Returns the cubes in generation order.
  std::vector<TestCube> generateCompactSet(const std::vector<FaultSite>& faults,
                                           std::size_t backtrackLimit = 5000) const;

 private:
  const Netlist* netlist_;
  std::shared_ptr<const Levelization> lev_;
  /// Combinational fanouts in CSR form, copied at construction because
  /// Netlist::fanouts() is an unsynchronised lazy cache.
  std::vector<std::uint32_t> fanoutBegin_;  // [gate], size gateCount() + 1
  std::vector<GateId> fanoutList_;
  std::vector<std::uint32_t> orderPos_;  // [gate] position in lev_->order
  /// [gate] how many observation points (POs, DFF D inputs) the line feeds.
  std::vector<std::uint32_t> obsCount_;
  /// [gate] 3-valued good value with every source X and no fault.
  std::vector<std::uint8_t> unassigned_;
};

/// PatternSet assembled from cubes (one pattern per cube, X filled
/// pseudorandomly), ready for the fault simulator / diagnosis stack.
PatternSet patternsFromCubes(const Netlist& netlist, const std::vector<TestCube>& cubes,
                             std::uint64_t fillSeed = 0xF1LL);

}  // namespace scandiag

#include "bist/prpg.hpp"

namespace scandiag {

PatternSet generatePatterns(const Netlist& netlist, std::size_t numPatterns,
                            const PrpgConfig& config) {
  PatternSet patterns(netlist, numPatterns);
  Lfsr lfsr(kPrpgLfsr, config.seed);
  for (std::size_t t = 0; t < numPatterns; ++t) {
    for (GateId dff : netlist.dffs()) patterns.stream(dff).set(t, lfsr.step());
    for (GateId pi : netlist.inputs()) patterns.stream(pi).set(t, lfsr.step());
  }
  return patterns;
}

}  // namespace scandiag

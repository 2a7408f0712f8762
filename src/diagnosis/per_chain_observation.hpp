// Per-chain MISR observation — the architecture knob behind Table 4's DR.
//
// With ONE compactor (the paper's Fig. 1), a session's verdict covers every
// chain at the selected positions: a failing group suspects W cells per
// position. Giving each chain its own MISR costs W-1 extra registers but
// splits every session verdict into W per-chain verdicts, restoring
// (position × chain) = per-cell granularity. This module implements that
// observation model on top of the same partition schedule:
//
//   candidates = ∩ over partitions of ∪ over failing (group, chain) pairs of
//                { cells of chain c at the positions of group g }
//
// Soundness is as before: a failing cell's (group, chain) pair fails in every
// partition. bench_ablation_perchain quantifies the DR payoff on the d695
// layout where the shared-compactor penalty is largest.
#pragma once

#include "bist/scan_topology.hpp"
#include "diagnosis/candidate_analyzer.hpp"
#include "diagnosis/prepared_partitions.hpp"
#include "sim/fault_simulator.hpp"

namespace scandiag {

/// verdicts[p][c].test(g): group g of partition p failed on chain c's MISR.
struct PerChainVerdicts {
  std::vector<std::vector<BitVector>> failing;
};

class PerChainObservation {
 public:
  explicit PerChainObservation(const ScanTopology& topology) : topology_(&topology) {}

  /// Exact verdicts: (p, c, g) fails iff some cell of chain c at a position
  /// of group g captured an error.
  PerChainVerdicts run(const PreparedPartitionSet& partitions,
                       const FaultResponse& response) const;

  /// Inclusion-exclusion at (position, chain) granularity.
  CandidateSet analyze(const std::vector<Partition>& partitions,
                       const PerChainVerdicts& verdicts) const;

  /// Convenience: run + analyze.
  CandidateSet diagnose(const PreparedPartitionSet& partitions,
                        const FaultResponse& response) const;

 private:
  const ScanTopology* topology_;
};

}  // namespace scandiag

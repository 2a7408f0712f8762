// Ablation — space compaction between scan-out and MISR.
//
// Folding W chains onto M < W MISR lines saves compactor pins and register
// width. In principle it merges evidence (cells of chains sharing a line can
// cancel and hide a failing group); in practice, for stuck-at workloads the
// measured cost is ~zero — the selection hardware already merges all chains
// at a shift position, and cancellation needs two failing cells at the SAME
// position with IDENTICAL error streams (engineered in the unit tests,
// essentially never produced by real faults). The dual-fault rows stress the
// cancellation path with two simultaneous faults per response.

#include "bench_util.hpp"
#include "core/scandiag.hpp"

using namespace scandiag;
using namespace scandiag::benchutil;

int main() {
  banner("Ablation: space compactor fold (8 chains -> M MISR lines, s38417)",
         "compaction merges chains' evidence and introduces cancellation aliasing");

  BenchReport report("ablation_compactor");
  const Netlist nl = generateNamedCircuit("s38417");
  const std::size_t chains = 8;
  WorkloadConfig wl = presets::table2Workload();
  const CircuitWorkload work = prepareWorkload(nl, wl, chains);
  report.context("circuit", "s38417");
  report.context("chains", chains);
  report.context("faults", work.responses.size());

  row("%zu chains of ~%zu cells, %zu detected faults", chains,
      work.topology.maxChainLength(), work.responses.size());
  row("");
  row("%-10s %12s %22s %12s %22s", "MISR lines", "DR single", "violations",
      "DR dual", "violations");

  // Dual-fault stress responses: pair fault i with fault i + n/2.
  std::vector<FaultResponse> dual;
  for (std::size_t i = 0; i + work.responses.size() / 2 < work.responses.size(); ++i) {
    FaultResponse merged = work.responses[i];
    const FaultResponse& other = work.responses[i + work.responses.size() / 2];
    merged.failingCells |= other.failingCells;
    for (std::size_t k = 0; k < other.failingCellOrdinals.size(); ++k) {
      if (merged.failingCells.test(other.failingCellOrdinals[k])) {
        // Skip duplicates (cell failing under both faults) to keep the
        // parallel arrays well-formed; the union bit is already set.
        bool dup = false;
        for (std::size_t ord : work.responses[i].failingCellOrdinals)
          dup |= ord == other.failingCellOrdinals[k];
        if (dup) continue;
      }
      merged.failingCellOrdinals.push_back(other.failingCellOrdinals[k]);
      merged.errorStreams.push_back(other.errorStreams[k]);
    }
    dual.push_back(std::move(merged));
  }

  for (std::size_t lines : {8u, 4u, 2u, 1u}) {
    const SpaceCompactor compactor = SpaceCompactor::moduloFanin(chains, lines);
    DiagnosisConfig config = presets::table2(SchemeKind::TwoStep, false);
    config.mode = SignatureMode::Misr;
    config.misrDegree = 16;

    // Assemble the pipeline by hand so the engine sees the compactor.
    const PreparedPartitionSet prepared(buildPartitions(config, work.topology.maxChainLength()));
    SessionConfig sc{SignatureMode::Misr, config.numPatterns};
    sc.misrDegree = config.misrDegree;
    sc.compactor = lines == chains ? nullptr : &compactor;
    const SessionEngine engine(work.topology, sc);
    const CandidateAnalyzer analyzer(work.topology);

    auto evaluate = [&](const std::vector<FaultResponse>& responses) {
      DrAccumulator acc;
      std::size_t violations = 0;
      for (const FaultResponse& r : responses) {
        const GroupVerdicts verdicts = engine.run(prepared, r);
        const CandidateSet cand = analyzer.analyze(prepared.partitions(), verdicts);
        acc.add(cand.cellCount(), r.failingCellCount());
        violations += !r.failingCells.isSubsetOf(cand.cells);
      }
      return std::make_pair(acc.dr(), violations);
    };
    const auto [drSingle, vSingle] = evaluate(work.responses);
    const auto [drDual, vDual] = evaluate(dual);
    row("%-10zu %12.3f %15zu / %-6zu %12.3f %15zu / %zu", lines, drSingle, vSingle,
        work.responses.size(), drDual, vDual, dual.size());
    report.row({{"misr_lines", static_cast<std::size_t>(lines)},
                {"dr_single", drSingle},
                {"violations_single", vSingle},
                {"dr_dual", drDual},
                {"violations_dual", vDual}});
  }
  report.write();
  return 0;
}

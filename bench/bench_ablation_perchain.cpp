// Ablation — one shared compactor (the paper's Fig. 1) vs one MISR per chain.
//
// Table 4's DR is dominated by the shared compare logic: a failing group
// suspects its positions on EVERY meta chain (8 cells per position on d695).
// Spending W-1 extra signature registers restores per-cell granularity. The
// comparison is run on the d695 SOC with the paper's Table-4 parameters so
// the numbers slot directly next to that table.

#include "bench_util.hpp"
#include "core/scandiag.hpp"

using namespace scandiag;
using namespace scandiag::benchutil;

int main() {
  banner("Ablation: shared compactor vs per-chain MISRs (d695, 8 partitions x 8 groups)",
         "W MISRs restore (position x chain) granularity; Table 4's DR collapses");

  BenchReport report("ablation_perchain");
  const Soc soc = buildD695();
  const WorkloadConfig workload = presets::socWorkload();
  report.context("soc", "d695");
  report.context("chains", soc.topology().numChains());
  const DiagnosisConfig config = presets::d695Config(SchemeKind::TwoStep, false);
  const PreparedPartitionSet prepared(buildPartitions(config, soc.topology().maxChainLength()));

  const SessionEngine engine(soc.topology(), SessionConfig{SignatureMode::Exact, 128});
  const CandidateAnalyzer shared(soc.topology());
  const PerChainObservation perChain(soc.topology());

  row("%-9s | %14s %14s %8s", "failing", "shared MISR", "per-chain MISR", "gain");
  for (std::size_t k = 0; k < soc.coreCount(); ++k) {
    const auto responses = socResponsesForFailingCore(soc, k, workload);
    DrAccumulator accShared, accPerChain;
    for (const FaultResponse& r : responses) {
      const GroupVerdicts v = engine.run(prepared, r);
      accShared.add(shared.analyze(prepared.partitions(), v).cellCount(), r.failingCellCount());
      accPerChain.add(perChain.diagnose(prepared, r).cellCount(), r.failingCellCount());
    }
    row("%-9s | %14.2f %14.2f %7sx", soc.core(k).name.c_str(), accShared.dr(),
        accPerChain.dr(), improvement(accShared.dr(), accPerChain.dr()).c_str());
    report.row({{"failing_core", soc.core(k).name},
                {"dr_shared", accShared.dr()},
                {"dr_per_chain", accPerChain.dr()}});
  }
  row("");
  row("hardware price: %zu MISRs instead of 1 (two-step's selection counters unchanged)",
      soc.topology().numChains());
  report.write();
  return 0;
}

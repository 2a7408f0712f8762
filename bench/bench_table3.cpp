// Table 3 — SOC diagnostic resolution, single meta scan chain.
//
// Paper setup: SOC-1 is crafted by stitching the six largest ISCAS-89
// benchmarks behind a single TestRail meta scan chain. One core at a time is
// assumed faulty; 500 single stuck-at faults are injected into it; 8
// partitions of 32 groups each (more groups because the meta chain is long).
// Expected shape: two-step dramatically better than random selection on every
// failing core — the paper reports up to a 10x improvement — because the
// faulty core occupies a contiguous run of the meta chain.

#include "bench_util.hpp"
#include "core/scandiag.hpp"

using namespace scandiag;
using namespace scandiag::benchutil;

int main(int argc, char** argv) {
  banner("Table 3: SOC-1 (six largest ISCAS-89, single meta chain), DR per failing core",
         "two-step >> random selection (up to 10x); holds with and without pruning");

  BenchRun run(argc, argv);
  BenchReport report("table3");
  const Soc soc = buildSoc1();
  report.context("soc", "SOC-1");
  report.context("cores", soc.coreCount());
  report.context("cells", soc.totalCells());
  row("SOC-1: %zu cores, %zu cells on one meta scan chain", soc.coreCount(), soc.totalCells());
  row("");

  const WorkloadConfig workload = presets::socWorkload();
  row("%-9s | %9s %9s %6s | %9s %9s %6s", "failing", "rand", "two-step", "gain",
      "rand+pr", "two+pr", "gain");

  std::uint64_t digest = fnv1a64(std::string("bench_table3"));
  digest = setupDigestPiece("soc", "SOC-1", digest);
  digest = setupDigestPiece("cores", soc.coreCount(), digest);
  digest = setupDigestPiece("cells", soc.totalCells(), digest);
  digest = setupDigestPiece("patterns", workload.numPatterns, digest);
  digest = setupDigestPiece("faults", workload.numFaults, digest);
  digest = setupDigestPiece("fault_seed", workload.faultSeed, digest);
  digest = setupDigestPiece("schema", obs::kMetricsSchemaVersion, digest);
  SweepCheckpoint* ckpt = run.openCheckpoint(digest, "bench_table3 SOC-1 soc workload");

  // Evaluate per core so each workload is fault-simulated once for all four
  // configurations. The checkpoint keys each (core, config) pair separately:
  // the per-config sweepId is mixed with the core index, as in evaluateSocDr.
  try {
    for (std::size_t k = 0; k < soc.coreCount(); ++k) {
      const auto responses = socResponsesForFailingCore(soc, k, workload);
      double dr[4];
      int i = 0;
      for (bool pruning : {false, true}) {
        for (SchemeKind scheme : {SchemeKind::RandomSelection, SchemeKind::TwoStep}) {
          const DiagnosisConfig config = presets::soc1Config(scheme, pruning);
          const DiagnosisPipeline pipeline(soc.topology(), config);
          dr[i++] = pipeline
                        .evaluate(responses, run.control(),
                                  SweepJournal{ckpt, socSweepIdFor(config, k)})
                        .dr;
        }
      }
      row("%-9s | %9.2f %9.2f %5sx | %9.2f %9.2f %5sx", soc.core(k).name.c_str(), dr[0], dr[1],
          improvement(dr[0], dr[1]).c_str(), dr[2], dr[3], improvement(dr[2], dr[3]).c_str());
      report.row({{"failing_core", soc.core(k).name},
                  {"dr_random", dr[0]},
                  {"dr_two_step", dr[1]},
                  {"dr_random_pruned", dr[2]},
                  {"dr_two_step_pruned", dr[3]}});
    }
  } catch (const OperationCancelled& err) {
    return run.interrupted(report, err);
  }
  report.write();
  return 0;
}

// Table 1 — Diagnostic resolution for s953 with a varying number of
// partitions (1..8) under the three partitioning schemes.
//
// Paper setup: s953 full-scan, single scan chain, 500 injected single
// stuck-at faults, 200 pseudorandom patterns per BIST session, 4 groups per
// partition. Expected shape: interval-based beats random selection when the
// partition budget is small; random selection wins for many partitions;
// two-step is the best of both at every budget (≈ half the DR of random
// selection at 8 partitions).
//
// Crash safety: with --checkpoint <file> every completed fault of every
// (scheme, partitions) sweep is journaled; a killed run restarts with
// --resume and produces bit-identical DR values, counters, and JSON (the CI
// kill-and-resume job gates on this). --deadline-ms bounds the whole run.

#include "bench_util.hpp"
#include "core/scandiag.hpp"

using namespace scandiag;
using namespace scandiag::benchutil;

int main(int argc, char** argv) {
  banner("Table 1: DR vs number of partitions, s953 (4 groups, 200 patterns)",
         "interval best at few partitions; random best at many; two-step best overall");

  BenchRun run(argc, argv);
  BenchReport report("table1");
  const Netlist nl = generateNamedCircuit("s953");
  const WorkloadConfig workload = presets::table1Workload();
  const CircuitWorkload work = prepareWorkload(nl, workload);
  report.context("circuit", "s953");
  report.context("cells", work.topology.numCells());
  report.context("faults", work.responses.size());
  row("circuit s953: %zu scan cells, %zu detected faults", work.topology.numCells(),
      work.responses.size());
  row("");
  row("%-12s %-16s %-18s %-10s", "#partitions", "DR(interval)", "DR(random-sel)", "DR(two-step)");

  // The setup digest binds the journal to this exact workload: same circuit,
  // pattern/fault budgets, seeds, and topology — not the thread count, which
  // a resume is free to change.
  std::uint64_t digest = fnv1a64(std::string("bench_table1"));
  digest = setupDigestPiece("circuit", "s953", digest);
  digest = setupDigestPiece("patterns", workload.numPatterns, digest);
  digest = setupDigestPiece("faults", workload.numFaults, digest);
  digest = setupDigestPiece("fault_seed", workload.faultSeed, digest);
  digest = setupDigestPiece("cells", work.topology.numCells(), digest);
  digest = setupDigestPiece("responses", work.responses.size(), digest);
  digest = setupDigestPiece("schema", obs::kMetricsSchemaVersion, digest);
  SweepCheckpoint* ckpt = run.openCheckpoint(digest, "bench_table1 s953 table1 workload");

  try {
    for (std::size_t partitions = 1; partitions <= 8; ++partitions) {
      double dr[3] = {0, 0, 0};
      int i = 0;
      for (SchemeKind scheme : {SchemeKind::IntervalBased, SchemeKind::RandomSelection,
                                SchemeKind::TwoStep}) {
        const DiagnosisConfig config = presets::table1(scheme, partitions);
        const DiagnosisPipeline pipeline(work.topology, config);
        dr[i++] = pipeline
                      .evaluate(work.responses, run.control(),
                                SweepJournal{ckpt, sweepIdFor(config)})
                      .dr;
      }
      row("%-12zu %-16.3f %-18.3f %-10.3f", partitions, dr[0], dr[1], dr[2]);
      report.row({{"partitions", partitions},
                  {"dr_interval", dr[0]},
                  {"dr_random", dr[1]},
                  {"dr_two_step", dr[2]}});
    }
  } catch (const OperationCancelled& err) {
    return run.interrupted(report, err);
  }
  report.write();
  return 0;
}

// Adaptive online planning — DR vs session budget against the fixed two-step.
//
// The tentpole claim: an entropy-greedy planner that chooses each next
// partition online (from a deterministic candidate pool, scored by expected
// log-reduction of the surviving candidate set) meets or beats the paper's
// fixed two-step schedule at EQUAL session budget, because it stops splitting
// faults that are already resolved and spends the remaining sessions where
// the model says they buy the most bits.
//
// Leg 1 sweeps the Table 1 workload (s953, 200 patterns, 500 faults, 4-group
// partitions) over session budgets 4..32 (1..8 partitions' worth); leg 2
// replays Table 3 (SOC-1, 8 partitions x 32 groups) per failing core. The
// bench FAILS (exit 1) if adaptive is worse at any s953 budget or on the
// SOC-1 aggregate, or not strictly better on at least two s953 budgets —
// this is the PR's acceptance gate, run in CI.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/scandiag.hpp"

using namespace scandiag;
using namespace scandiag::benchutil;

int main(int argc, char** argv) {
  banner("Adaptive online planner: DR vs session budget, s953 + SOC-1",
         "extension — greedy entropy scheduling meets or beats the fixed two-step");

  BenchRun run(argc, argv);
  BenchReport report("adaptive");
  const Netlist nl = generateNamedCircuit("s953");
  const WorkloadConfig workload = presets::table1Workload();
  const CircuitWorkload work = prepareWorkload(nl, workload);
  report.context("circuit", "s953");
  report.context("cells", work.topology.numCells());
  report.context("faults", work.responses.size());
  row("circuit s953: %zu scan cells, %zu detected faults", work.topology.numCells(),
      work.responses.size());
  row("");
  row("%-10s %-14s %-14s %-10s", "#sessions", "DR(two-step)", "DR(adaptive)", "margin");

  std::uint64_t digest = fnv1a64(std::string("bench_adaptive"));
  digest = setupDigestPiece("circuit", "s953", digest);
  digest = setupDigestPiece("patterns", workload.numPatterns, digest);
  digest = setupDigestPiece("faults", workload.numFaults, digest);
  digest = setupDigestPiece("fault_seed", workload.faultSeed, digest);
  digest = setupDigestPiece("cells", work.topology.numCells(), digest);
  digest = setupDigestPiece("responses", work.responses.size(), digest);
  digest = setupDigestPiece("schema", obs::kMetricsSchemaVersion, digest);
  SweepCheckpoint* ckpt = run.openCheckpoint(digest, "bench_adaptive s953 + SOC-1");

  bool gateOk = true;
  std::size_t strictlyBetter = 0;
  try {
    for (std::size_t partitions = 1; partitions <= 8; ++partitions) {
      const DiagnosisConfig twoCfg = presets::table1(SchemeKind::TwoStep, partitions);
      DiagnosisConfig adCfg = twoCfg;
      adCfg.scheme = SchemeKind::Adaptive;
      const double drTwo =
          DiagnosisPipeline(work.topology, twoCfg)
              .evaluate(work.responses, run.control(), SweepJournal{ckpt, sweepIdFor(twoCfg)})
              .dr;
      const double drAd =
          DiagnosisPipeline(work.topology, adCfg)
              .evaluate(work.responses, run.control(), SweepJournal{ckpt, sweepIdFor(adCfg)})
              .dr;
      const std::size_t sessions = partitions * twoCfg.groupsPerPartition;
      row("%-10zu %-14.4f %-14.4f %+.4f", sessions, drTwo, drAd, drTwo - drAd);
      report.row({{"sessions", sessions},
                  {"dr_two_step", drTwo},
                  {"dr_adaptive", drAd},
                  {"margin", drTwo - drAd}});
      if (drAd > drTwo) {
        gateOk = false;
        std::fprintf(stderr, "GATE: adaptive worse than two-step at %zu sessions "
                             "(%.4f > %.4f)\n", sessions, drAd, drTwo);
      }
      if (drAd < drTwo) ++strictlyBetter;
    }

    // Leg 2: Table 3 protocol — SOC-1, one failing core at a time.
    const Soc soc = buildSoc1();
    const WorkloadConfig socWorkload = presets::socWorkload();
    row("");
    row("SOC-1: %zu cores, %zu cells on one meta scan chain", soc.coreCount(),
        soc.totalCells());
    row("%-9s | %12s %12s %10s", "failing", "two-step", "adaptive", "margin");
    const DiagnosisConfig socTwo = presets::soc1Config(SchemeKind::TwoStep, false);
    DiagnosisConfig socAd = socTwo;
    socAd.scheme = SchemeKind::Adaptive;
    const DiagnosisPipeline socTwoPipe(soc.topology(), socTwo);
    const DiagnosisPipeline socAdPipe(soc.topology(), socAd);
    double socSumTwo = 0.0;
    double socSumAd = 0.0;
    for (std::size_t k = 0; k < soc.coreCount(); ++k) {
      const auto responses = socResponsesForFailingCore(soc, k, socWorkload);
      const double drTwo =
          socTwoPipe
              .evaluate(responses, run.control(), SweepJournal{ckpt, socSweepIdFor(socTwo, k)})
              .dr;
      const double drAd =
          socAdPipe.evaluate(responses, run.control(), SweepJournal{ckpt, socSweepIdFor(socAd, k)})
              .dr;
      socSumTwo += drTwo;
      socSumAd += drAd;
      row("%-9s | %12.3f %12.3f %+10.3f", soc.core(k).name.c_str(), drTwo, drAd,
          drTwo - drAd);
      report.row({{"failing_core", soc.core(k).name},
                  {"dr_two_step", drTwo},
                  {"dr_adaptive", drAd},
                  {"margin", drTwo - drAd}});
    }
    row("%-9s | %12.3f %12.3f %+10.3f", "sum", socSumTwo, socSumAd, socSumTwo - socSumAd);
    report.row({{"failing_core", "sum"},
                {"dr_two_step", socSumTwo},
                {"dr_adaptive", socSumAd},
                {"margin", socSumTwo - socSumAd}});
    if (socSumAd > socSumTwo) {
      gateOk = false;
      std::fprintf(stderr, "GATE: adaptive worse than two-step on the SOC-1 aggregate "
                           "(%.4f > %.4f)\n", socSumAd, socSumTwo);
    }
  } catch (const OperationCancelled& err) {
    return run.interrupted(report, err);
  }

  if (strictlyBetter < 2) {
    gateOk = false;
    std::fprintf(stderr, "GATE: adaptive strictly better at only %zu of 8 s953 budgets "
                         "(need >= 2)\n", strictlyBetter);
  }
  report.write();
  if (!gateOk) {
    std::fprintf(stderr, "bench_adaptive: acceptance gate FAILED\n");
    return 1;
  }
  row("");
  row("acceptance gate passed: adaptive <= two-step at every budget, strictly better "
      "at %zu of 8", strictlyBetter);
  return 0;
}

// Defect-zoo robustness sweep: misdiagnosis rate and DR as a function of the
// simultaneous-defect count k, over mixed stuck-at / bridge / stuck-open
// scenarios, plus the two degradation regimes (intermittent activation and a
// starved refinement budget that forces the PODEM stall breaker).
//
// The paper's tables assume one permanent stuck-at fault per device; this
// bench measures what multi-site defect scenarios do to the pipeline and
// enforces the degrade-never-lie contract as hard gates:
//   * superset soundness — no scenario, permanent or intermittent, may
//     exclude a true failing cell (misdiagnosis rate must be exactly 0);
//   * k=2 precision — union diagnosis must match or beat the single-fault
//     baseline (each component diagnosed alone) on >= 90% of scenarios;
//   * intermittent p=0.5 — every scenario degrades to a confidence-scored
//     superset (no errors, confidence strictly inside (0,1));
//   * a starved refinement budget must hand off to PODEM (nonzero
//     atpg_patterns_generated);
//   * every metric bit-identical at 1, 2, and 8 threads.
//
// Writes results/BENCH_defect_zoo.json. Set SCANDIAG_DEFECT_FULL=1 for the
// dense sweep (more scenarios per row).

#include <cstdlib>
#include <vector>

#include "bench_util.hpp"
#include "core/scandiag.hpp"

using namespace scandiag;

namespace {

bool sameReport(const DrReport& a, const DrReport& b) {
  return a.faults == b.faults && a.sumCandidates == b.sumCandidates &&
         a.sumActual == b.sumActual && a.misdiagnosed == b.misdiagnosed &&
         a.meanConfidence == b.meanConfidence && a.unresolved == b.unresolved &&
         a.inconsistencies == b.inconsistencies &&
         a.unionSplits == b.unionSplits &&
         a.atpgPatterns == b.atpgPatterns &&
         a.extraSessions == b.extraSessions;
}

/// generate() fault-simulates, so scenarios are drawn serially (the
/// FaultSimulator ownership rule); diagnosis afterwards runs in parallel.
std::vector<DefectScenario> drawScenarios(const DefectScenarioGenerator& generator,
                                          std::size_t count) {
  std::vector<DefectScenario> scenarios;
  scenarios.reserve(count);
  for (std::size_t i = 0; i < count; ++i) scenarios.push_back(generator.generate(i));
  return scenarios;
}

}  // namespace

int main() {
  const bool full = std::getenv("SCANDIAG_DEFECT_FULL") != nullptr;

  benchutil::BenchReport report("defect_zoo");
  struct CircuitSpec {
    const char* name;
    std::size_t scenarios;
  };
  const std::vector<CircuitSpec> circuits{{"s953", full ? std::size_t{60} : std::size_t{30}},
                                          {"s9234", full ? std::size_t{40} : std::size_t{20}}};
  const DiagnosisConfig config;  // two-step, 8 partitions x 16 groups, 128 patterns

  benchutil::banner(
      "Defect zoo: DR / misdiagnosis vs simultaneous-defect count k (mixed models)",
      "no claim — robustness extension; paper assumes a single permanent stuck-at fault");
  std::printf("%-8s %-22s %-8s %-9s %-9s %-7s %-6s %-7s %-6s %-8s\n", "circuit", "defects",
              "threads", "DR", "misdiag", "conf", "degr", "splits", "atpg", "extra");

  bool deterministic = true;
  bool sound = true;
  bool precisionOk = true;
  bool intermittentOk = true;
  bool atpgOk = true;

  for (const CircuitSpec& spec : circuits) {
    const Netlist nl = generateNamedCircuit(spec.name);
    const PatternSet patterns = generatePatterns(nl, config.numPatterns, PrpgConfig{});
    const FaultSimulator sim(nl, patterns);
    const ScanTopology topology = ScanTopology::singleChain(nl.dffs().size());

    for (std::size_t k = 1; k <= 4; ++k) {
      DefectMix mix;
      mix.k = k;
      mix.bridges = true;
      mix.opens = true;
      const DefectScenarioGenerator generator(sim, mix);
      const std::vector<DefectScenario> scenarios = drawScenarios(generator, spec.scenarios);
      const DefectZooPipeline zoo(sim, topology, config, DefectPolicy{});

      DrReport reference;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        setGlobalThreadCount(threads);
        const DrReport rep = zoo.evaluate(scenarios);
        if (threads == 1) {
          reference = rep;
        } else if (!sameReport(reference, rep)) {
          deterministic = false;
        }
        benchutil::row("%-8s %-22s %-8zu %-9.4f %-9.4f %-7.3f %-6zu %-7zu %-6zu %-8zu",
                       spec.name, describeDefectMix(mix).c_str(), threads, rep.dr,
                       rep.misdiagnosisRate(), rep.meanConfidence, rep.unresolved,
                       rep.unionSplits, rep.atpgPatterns, rep.extraSessions);
        report.row({{"circuit", spec.name},
                    {"defects", describeDefectMix(mix)},
                    {"k", k},
                    {"threads", threads},
                    {"scenarios", rep.faults},
                    {"dr", rep.dr},
                    {"misdiagnosis_rate", rep.misdiagnosisRate()},
                    {"mean_confidence", rep.meanConfidence},
                    {"sum_candidates", rep.sumCandidates},
                    {"sum_actual", rep.sumActual},
                    {"degraded", rep.unresolved},
                    {"union_splits", rep.unionSplits},
                    {"atpg_patterns", rep.atpgPatterns},
                    {"extra_sessions", rep.extraSessions}});
      }
      setGlobalThreadCount(1);
      // Gate: degrade-never-lie. A nonzero misdiagnosis rate means some true
      // failing cell was excluded from a candidate set.
      if (reference.misdiagnosisRate() != 0.0) sound = false;

      if (k == 2) {
        // Gate: union diagnosis precision (actual/candidates, 1.0 = exact)
        // must match or beat the single-fault baseline — each component of
        // the same scenario diagnosed alone through the base pipeline — on
        // at least 90% of scenarios.
        std::size_t atLeastBaseline = 0;
        for (const DefectScenario& scenario : scenarios) {
          const FaultDiagnosis d = zoo.diagnose(scenario);
          if (d.misdiagnosed) sound = false;
          const double unionPrecision =
              d.candidateCount == 0 ? 1.0
                                    : static_cast<double>(d.actualCount) /
                                          static_cast<double>(d.candidateCount);
          std::size_t baseCandidates = 0;
          std::size_t baseActual = 0;
          for (const DefectComponent& component : scenario.components) {
            const FaultDiagnosis fd = zoo.base().diagnose(component.response);
            baseCandidates += fd.candidateCount;
            baseActual += fd.actualCount;
          }
          const double basePrecision =
              baseCandidates == 0 ? 1.0
                                  : static_cast<double>(baseActual) /
                                        static_cast<double>(baseCandidates);
          if (unionPrecision + 1e-12 >= basePrecision) ++atLeastBaseline;
        }
        const double fraction =
            static_cast<double>(atLeastBaseline) / static_cast<double>(scenarios.size());
        std::printf("  k=2 precision >= single-fault baseline: %zu/%zu scenarios (%.0f%%)\n",
                    atLeastBaseline, scenarios.size(), 100.0 * fraction);
        report.row({{"circuit", spec.name},
                    {"gate", "k2_precision_vs_baseline"},
                    {"scenarios", scenarios.size()},
                    {"at_least_baseline", atLeastBaseline}});
        if (fraction < 0.9) precisionOk = false;
      }
    }

    {
      // Intermittent regime: every scenario must degrade to a confidence-
      // scored superset — no errors, no excluded true cells, confidence
      // strictly between 0 and 1.
      DefectMix mix;
      mix.k = 2;
      mix.intermittentP = 0.5;
      const DefectScenarioGenerator generator(sim, mix);
      const std::vector<DefectScenario> scenarios =
          drawScenarios(generator, full ? std::size_t{24} : std::size_t{12});
      const DefectZooPipeline zoo(sim, topology, config, DefectPolicy{});
      DrReport reference;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        setGlobalThreadCount(threads);
        const DrReport rep = zoo.evaluate(scenarios);
        if (threads == 1) {
          reference = rep;
        } else if (!sameReport(reference, rep)) {
          deterministic = false;
        }
        benchutil::row("%-8s %-22s %-8zu %-9.4f %-9.4f %-7.3f %-6zu %-7zu %-6zu %-8zu",
                       spec.name, describeDefectMix(mix).c_str(), threads, rep.dr,
                       rep.misdiagnosisRate(), rep.meanConfidence, rep.unresolved,
                       rep.unionSplits, rep.atpgPatterns, rep.extraSessions);
        report.row({{"circuit", spec.name},
                    {"defects", describeDefectMix(mix)},
                    {"k", std::size_t{2}},
                    {"threads", threads},
                    {"scenarios", rep.faults},
                    {"dr", rep.dr},
                    {"misdiagnosis_rate", rep.misdiagnosisRate()},
                    {"mean_confidence", rep.meanConfidence},
                    {"sum_candidates", rep.sumCandidates},
                    {"sum_actual", rep.sumActual},
                    {"degraded", rep.unresolved},
                    {"union_splits", rep.unionSplits},
                    {"atpg_patterns", rep.atpgPatterns},
                    {"extra_sessions", rep.extraSessions}});
      }
      setGlobalThreadCount(1);
      if (reference.misdiagnosisRate() != 0.0) sound = false;
      if (reference.unresolved != reference.faults || reference.meanConfidence <= 0.0 ||
          reference.meanConfidence >= 1.0) {
        intermittentOk = false;
      }
    }
  }

  {
    // Starved refinement budget: with only 8 interval sessions the passive
    // refiner must stall on k=3 mixed scenarios and hand unresolved positions
    // to the PODEM stall breaker (confirm-only, so soundness still holds).
    const Netlist nl = generateNamedCircuit("s953");
    const PatternSet patterns = generatePatterns(nl, config.numPatterns, PrpgConfig{});
    const FaultSimulator sim(nl, patterns);
    const ScanTopology topology = ScanTopology::singleChain(nl.dffs().size());
    DefectMix mix;
    mix.k = 3;
    mix.bridges = true;
    mix.opens = true;
    const DefectScenarioGenerator generator(sim, mix);
    const std::vector<DefectScenario> scenarios =
        drawScenarios(generator, full ? std::size_t{30} : std::size_t{15});
    DefectPolicy starved;
    starved.refineSessionBudget = 8;
    const DefectZooPipeline zoo(sim, topology, config, starved);
    const DrReport rep = zoo.evaluate(scenarios);
    benchutil::row("%-8s %-22s %-8s %-9.4f %-9.4f %-7.3f %-6zu %-7zu %-6zu %-8zu", "s953",
                   "k=3 (refine budget 8)", "1", rep.dr, rep.misdiagnosisRate(),
                   rep.meanConfidence, rep.unresolved, rep.unionSplits,
                   rep.atpgPatterns, rep.extraSessions);
    report.row({{"circuit", "s953"},
                {"defects", "k=3,bridge,open,refine:8"},
                {"k", std::size_t{3}},
                {"threads", std::size_t{1}},
                {"scenarios", rep.faults},
                {"dr", rep.dr},
                {"misdiagnosis_rate", rep.misdiagnosisRate()},
                {"mean_confidence", rep.meanConfidence},
                {"sum_candidates", rep.sumCandidates},
                {"sum_actual", rep.sumActual},
                {"degraded", rep.unresolved},
                {"union_splits", rep.unionSplits},
                {"atpg_patterns", rep.atpgPatterns},
                {"extra_sessions", rep.extraSessions}});
    if (rep.misdiagnosisRate() != 0.0) sound = false;
    if (rep.atpgPatterns == 0) atpgOk = false;
  }

  std::printf("\nthread determinism (1 vs 2 vs 8): %s\n", deterministic ? "OK" : "MISMATCH");
  std::printf("superset soundness (misdiagnosis == 0 everywhere): %s\n", sound ? "OK" : "FAIL");
  std::printf("k=2 precision >= baseline on >= 90%%: %s\n", precisionOk ? "OK" : "FAIL");
  std::printf("intermittent p=0.5 degrades to confidence-scored supersets: %s\n",
              intermittentOk ? "OK" : "FAIL");
  std::printf("starved refinement hands off to PODEM: %s\n", atpgOk ? "OK" : "FAIL");

  report.context("scheme", "two_step");
  report.context("partitions", config.numPartitions);
  report.context("groups", config.groupsPerPartition);
  report.context("patterns", config.numPatterns);
  report.context("thread_deterministic", deterministic);
  report.context("superset_sound", sound);
  report.write();

  if (!deterministic) std::fprintf(stderr, "FAIL: metrics drift across thread counts\n");
  if (!sound) std::fprintf(stderr, "FAIL: a true failing cell was excluded (misdiagnosis)\n");
  if (!precisionOk) std::fprintf(stderr, "FAIL: k=2 precision below single-fault baseline\n");
  if (!intermittentOk) std::fprintf(stderr, "FAIL: intermittent regime did not degrade cleanly\n");
  if (!atpgOk) std::fprintf(stderr, "FAIL: starved refinement generated no ATPG patterns\n");
  return (deterministic && sound && precisionOk && intermittentOk && atpgOk) ? 0 : 1;
}

// Noise-resilience sweep: DR and misdiagnosis rate as a function of tester
// noise rate, with and without bounded-retry recovery, at 1 and 8 threads.
//
// The paper's DR tables assume perfect session verdicts; this bench measures
// what a noisy tester does to them and how much the resilience layer
// (inconsistency detection + bounded session retry + graceful degradation)
// buys back. The 1- vs 8-thread rows double as a determinism check: every
// metric must be bit-identical across thread counts.
//
// Writes results/BENCH_noise.json. Set SCANDIAG_NOISE_FULL=1 for the dense
// sweep (more faults, more rates).

#include <cstdlib>
#include <vector>

#include "bench_util.hpp"
#include "core/scandiag.hpp"

using namespace scandiag;

namespace {

struct SweepPoint {
  double noiseRate = 0.0;
  bool recovery = false;
  std::size_t threads = 1;
  DrReport report;
};

bool sameReport(const DrReport& a, const DrReport& b) {
  return a.sumCandidates == b.sumCandidates && a.sumActual == b.sumActual &&
         a.faults == b.faults && a.inconsistencies == b.inconsistencies &&
         a.extraSessions == b.extraSessions && a.unresolved == b.unresolved &&
         a.misdiagnosisRate() == b.misdiagnosisRate() && a.meanConfidence == b.meanConfidence;
}

}  // namespace

int main() {
  const bool full = std::getenv("SCANDIAG_NOISE_FULL") != nullptr;

  benchutil::BenchReport report("noise");
  const Netlist nl = generateNamedCircuit("s953");
  WorkloadConfig wc;
  wc.numPatterns = 128;
  wc.numFaults = full ? 500 : 200;
  const CircuitWorkload work = prepareWorkload(nl, wc);

  DiagnosisConfig config;  // two-step, 8 partitions x 16 groups, 128 patterns
  RetryPolicy recovery;
  recovery.maxRetriesPerSession = 2;
  recovery.sessionBudget = 64;  // half a schedule's worth of extra sessions

  std::vector<double> rates{0.0, 0.005, 0.01, 0.02, 0.05};
  if (full) rates = {0.0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1};

  benchutil::banner(
      "Noise resilience: DR / misdiagnosis vs verdict-flip rate (s953, two-step)",
      "no claim — robustness extension; paper assumes noiseless session verdicts");
  std::printf("faults %zu, retry budget %zu sessions x %zu re-runs, seed 0x%llX\n\n",
              work.responses.size(), recovery.sessionBudget, recovery.maxRetriesPerSession,
              static_cast<unsigned long long>(NoiseConfig{}.seed));
  std::printf("%-8s %-9s %-8s %-9s %-9s %-7s %-7s %-8s %-7s %-6s\n", "noise", "recovery",
              "threads", "DR", "misdiag", "empty", "conf", "inconsis", "retry", "unres");

  std::vector<SweepPoint> points;
  bool deterministic = true;
  for (const double rate : rates) {
    NoiseConfig noise;
    noise.flipRate = rate;
    for (const bool withRecovery : {false, true}) {
      const RetryPolicy policy = withRecovery ? recovery : RetryPolicy{};
      const DiagnosisPipeline pipeline(work.topology, config, noise, policy);
      DrReport reference;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        setGlobalThreadCount(threads);
        SweepPoint point;
        point.noiseRate = rate;
        point.recovery = withRecovery;
        point.threads = threads;
        point.report = pipeline.evaluate(work.responses);
        if (threads == 1) {
          reference = point.report;
        } else if (!sameReport(reference, point.report)) {
          deterministic = false;
        }
        benchutil::row("%-8.3f %-9s %-8zu %-9.4f %-9.4f %-7.4f %-7.3f %-8zu %-7zu %-6zu",
                       rate, withRecovery ? "on" : "off", threads, point.report.dr,
                       point.report.misdiagnosisRate(), point.report.emptyRate(),
                       point.report.meanConfidence, point.report.inconsistencies,
                       point.report.extraSessions, point.report.unresolved);
        points.push_back(point);
      }
    }
  }
  setGlobalThreadCount(1);
  std::printf("\nthread determinism (1 vs 8): %s\n", deterministic ? "OK" : "MISMATCH");

  report.context("circuit", nl.name());
  report.context("scheme", "two_step");
  report.context("partitions", config.numPartitions);
  report.context("groups", config.groupsPerPartition);
  report.context("faults", work.responses.size());
  report.context("retry_budget", recovery.sessionBudget);
  report.context("max_retries_per_session", recovery.maxRetriesPerSession);
  report.context("thread_deterministic", deterministic);
  for (const SweepPoint& p : points) {
    report.row({{"noise_rate", p.noiseRate},
                {"recovery", p.recovery},
                {"threads", p.threads},
                {"dr", p.report.dr},
                {"misdiagnosis_rate", p.report.misdiagnosisRate()},
                {"empty_rate", p.report.emptyRate()},
                {"mean_confidence", p.report.meanConfidence},
                {"sum_candidates", p.report.sumCandidates},
                {"sum_actual", p.report.sumActual},
                {"inconsistencies", p.report.inconsistencies},
                {"retry_sessions", p.report.extraSessions},
                {"unresolved", p.report.unresolved}});
  }
  report.write();
  return deterministic ? 0 : 1;
}

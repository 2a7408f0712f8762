// Threading determinism for the adaptive scheme (docs/ARCHITECTURE.md §14):
// the online planner makes data-dependent scheduling decisions per fault, so
// this suite pins the contract that those decisions — and everything computed
// from them — are identical at 1, 2, and 8 threads, with and without injected
// noise, down to every counter. It also pins the cross-scheme parity anchor:
// adaptive forced into the fixed order IS two-step, bit for bit.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/scandiag.hpp"
#include "obs/metrics.hpp"

namespace scandiag {
namespace {

class AdaptiveDeterminism : public ::testing::Test {
 protected:
  void TearDown() override {
    setGlobalThreadCount(0);
    obs::MetricsRegistry::instance().reset();
  }

  static constexpr std::size_t kThreadCounts[] = {1, 2, 8};

  static const CircuitWorkload& work() {
    static const CircuitWorkload w = [] {
      const Netlist nl = generateNamedCircuit("s953");
      WorkloadConfig wc;
      wc.numPatterns = 96;
      wc.numFaults = 150;
      return prepareWorkload(nl, wc);
    }();
    return w;
  }

  static DiagnosisConfig adaptiveConfig() {
    DiagnosisConfig config;
    config.scheme = SchemeKind::Adaptive;
    config.numPartitions = 6;
    config.groupsPerPartition = 8;
    config.numPatterns = 96;
    return config;
  }
};

void expectSameReport(const DrReport& expected, const DrReport& actual,
                      const std::string& what) {
  EXPECT_EQ(expected.faults, actual.faults) << what;
  EXPECT_EQ(expected.sumCandidates, actual.sumCandidates) << what;
  EXPECT_EQ(expected.sumActual, actual.sumActual) << what;
  EXPECT_EQ(expected.dr, actual.dr) << what;
}

TEST_F(AdaptiveDeterminism, EvaluateIsBitIdenticalAcrossThreadCounts) {
  const DiagnosisPipeline pipeline(work().topology, adaptiveConfig());
  setGlobalThreadCount(1);
  const DrReport serial = pipeline.evaluate(work().responses);
  for (std::size_t threads : kThreadCounts) {
    setGlobalThreadCount(threads);
    expectSameReport(serial, pipeline.evaluate(work().responses),
                     "adaptive @" + std::to_string(threads) + " threads");
  }
}

TEST_F(AdaptiveDeterminism, EvaluateSweepIsBitIdenticalAcrossThreadCounts) {
  const DiagnosisPipeline pipeline(work().topology, adaptiveConfig());
  setGlobalThreadCount(1);
  const std::vector<double> serial = pipeline.evaluateSweep(work().responses);
  ASSERT_EQ(serial.size(), adaptiveConfig().numPartitions);
  for (std::size_t threads : kThreadCounts) {
    setGlobalThreadCount(threads);
    const std::vector<double> parallel = pipeline.evaluateSweep(work().responses);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t p = 0; p < serial.size(); ++p) {
      EXPECT_EQ(serial[p], parallel[p])
          << "prefix " << p + 1 << " @" << threads << " threads";
    }
  }
}

TEST_F(AdaptiveDeterminism, NoisyEvaluateIsBitIdenticalAcrossThreadCounts) {
  NoiseConfig noise;
  noise.flipRate = 0.02;
  RetryPolicy retry;
  retry.sessionBudget = 24;
  const DiagnosisPipeline pipeline(work().topology, adaptiveConfig(), noise, retry);
  setGlobalThreadCount(1);
  const DrReport serial = pipeline.evaluate(work().responses);
  for (std::size_t threads : kThreadCounts) {
    setGlobalThreadCount(threads);
    const DrReport parallel = pipeline.evaluate(work().responses);
    const std::string what = "noisy adaptive @" + std::to_string(threads) + " threads";
    EXPECT_EQ(serial.faults, parallel.faults) << what;
    EXPECT_EQ(serial.sumCandidates, parallel.sumCandidates) << what;
    EXPECT_EQ(serial.sumActual, parallel.sumActual) << what;
    EXPECT_EQ(serial.dr, parallel.dr) << what;
    EXPECT_EQ(serial.misdiagnosisRate(), parallel.misdiagnosisRate()) << what;
    EXPECT_EQ(serial.emptyRate(), parallel.emptyRate()) << what;
    EXPECT_EQ(serial.meanConfidence, parallel.meanConfidence) << what;
    EXPECT_EQ(serial.inconsistencies, parallel.inconsistencies) << what;
    EXPECT_EQ(serial.extraSessions, parallel.extraSessions) << what;
    EXPECT_EQ(serial.unresolved, parallel.unresolved) << what;
  }
}

using MetricsCounters = std::array<std::uint64_t, obs::kNumCounters>;

template <typename Body>
void expectCountersThreadInvariant(const std::size_t (&threadCounts)[3], Body&& body,
                                   const std::string& what) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  setGlobalThreadCount(1);
  registry.reset();
  body();
  const MetricsCounters serial = registry.snapshot().counters;
  EXPECT_GT(serial[static_cast<std::size_t>(obs::Counter::FaultsDiagnosed)], 0u)
      << what;
  // The adaptive loop must actually be exercised for this gate to mean much.
  EXPECT_GT(serial[static_cast<std::size_t>(obs::Counter::AdaptiveCandidatesPruned)], 0u)
      << what;
  for (std::size_t threads : threadCounts) {
    setGlobalThreadCount(threads);
    registry.reset();
    body();
    const MetricsCounters parallel = registry.snapshot().counters;
    for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
      EXPECT_EQ(serial[i], parallel[i])
          << what << " counter " << obs::counterName(static_cast<obs::Counter>(i)) << " @"
          << threads << " threads";
    }
  }
}

TEST_F(AdaptiveDeterminism, MetricsCountersAreBitIdenticalAcrossThreadCounts) {
  const DiagnosisPipeline pipeline(work().topology, adaptiveConfig());
  expectCountersThreadInvariant(
      kThreadCounts, [&] { pipeline.evaluate(work().responses); }, "adaptive");
}

TEST_F(AdaptiveDeterminism, NoisyMetricsCountersAreBitIdenticalAcrossThreadCounts) {
  NoiseConfig noise;
  noise.flipRate = 0.02;
  RetryPolicy retry;
  retry.sessionBudget = 24;
  const DiagnosisPipeline pipeline(work().topology, adaptiveConfig(), noise, retry);
  expectCountersThreadInvariant(
      kThreadCounts, [&] { pipeline.evaluate(work().responses); }, "noisy adaptive");
}

TEST_F(AdaptiveDeterminism, ForcedFixedOrderMatchesTwoStepAtEveryThreadCount) {
  DiagnosisConfig twoCfg = adaptiveConfig();
  twoCfg.scheme = SchemeKind::TwoStep;
  const DiagnosisPipeline twoStep(work().topology, twoCfg);
  DiagnosisConfig forced = adaptiveConfig();
  forced.schemeConfig.adaptive.forceFixedOrder = true;
  const DiagnosisPipeline adaptive(work().topology, forced);
  for (std::size_t threads : kThreadCounts) {
    setGlobalThreadCount(threads);
    expectSameReport(twoStep.evaluate(work().responses), adaptive.evaluate(work().responses),
                     "parity @" + std::to_string(threads) + " threads");
  }
}

}  // namespace
}  // namespace scandiag

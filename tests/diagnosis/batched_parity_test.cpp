// Parity oracle for the session scoring kernel (docs/ARCHITECTURE.md §11).
// At the engine level, SessionEngine::run must be BIT-IDENTICAL to the
// per-session reference (runReference) in group verdicts, error signatures
// and counter deltas. At the pipeline level there is one scorer left, so the
// oracle is a set of records: the DR report and counter deltas that the
// per-session reference pipeline produced, per case, before the reference
// stopped being a production path (tests/diagnosis/reference_pipeline_*.
// golden). Every case must reproduce its record at thread counts {1, 2, 8}
// — three fixed schemes and the adaptive scheme over five circuits, with
// and without superposition pruning, and with injected tester noise, which
// re-runs partitions one at a time through runPartition. The CI sanitizer
// matrix (TSan and ASan+UBSan) runs this suite too, so scorer parity is also
// checked under race and UB detection.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/scandiag.hpp"
#include "obs/metrics.hpp"

namespace scandiag {
namespace {

constexpr const char* kCircuits[] = {"s298", "s344", "s526", "s953", "s9234"};
constexpr SchemeKind kSchemes[] = {SchemeKind::IntervalBased, SchemeKind::RandomSelection,
                                   SchemeKind::TwoStep};
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// Batch-only counters are the two the reference scorer never increments; the
/// parity contract is exact equality on every OTHER counter's delta.
bool isBatchOnly(std::size_t counterIndex) {
  return counterIndex == static_cast<std::size_t>(obs::Counter::BatchedGroupScores) ||
         counterIndex == static_cast<std::size_t>(obs::Counter::BatchContribCells);
}

void expectCounterParity(const std::array<std::uint64_t, obs::kNumCounters>& batched,
                         const std::array<std::uint64_t, obs::kNumCounters>& reference,
                         const std::string& what) {
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    if (isBatchOnly(i)) continue;
    EXPECT_EQ(batched[i], reference[i])
        << what << ": counter " << obs::counterName(static_cast<obs::Counter>(i));
  }
}

void expectSameVerdicts(const GroupVerdicts& a, const GroupVerdicts& b,
                        const std::string& what) {
  ASSERT_EQ(a.failing.size(), b.failing.size()) << what;
  for (std::size_t p = 0; p < a.failing.size(); ++p) {
    EXPECT_EQ(a.failing[p], b.failing[p]) << what << ": partition " << p;
  }
  EXPECT_EQ(a.hasSignatures, b.hasSignatures) << what;
  EXPECT_EQ(a.signatureDegree, b.signatureDegree) << what;
  ASSERT_EQ(a.errorSig.size(), b.errorSig.size()) << what;
  for (std::size_t p = 0; p < a.errorSig.size(); ++p) {
    EXPECT_EQ(a.errorSig[p], b.errorSig[p]) << what << ": signatures of partition " << p;
  }
}

/// Workloads are the expensive part (pattern generation + fault simulation);
/// build each circuit's once and share it across every parity dimension.
const CircuitWorkload& workloadFor(const std::string& name) {
  static std::map<std::string, CircuitWorkload>* cache =
      new std::map<std::string, CircuitWorkload>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    const Netlist nl = generateNamedCircuit(name);
    WorkloadConfig wc;
    wc.numPatterns = 64;
    wc.numFaults = name == "s9234" ? 60 : 120;
    it = cache->emplace(name, prepareWorkload(nl, wc)).first;
  }
  return it->second;
}

DiagnosisConfig configFor(SchemeKind scheme, bool pruning,
                          SignatureMode mode = SignatureMode::Exact) {
  DiagnosisConfig config;
  config.scheme = scheme;
  config.numPartitions = 6;
  config.groupsPerPartition = 8;
  config.numPatterns = 64;
  config.mode = mode;
  config.pruning = pruning;
  return config;
}

std::string caseName(const std::string& circuit, SchemeKind scheme, bool pruning) {
  return circuit + "/" + schemeName(scheme) + (pruning ? "+prune" : "");
}

/// The records of the pipeline tests, one line per case, read relative to
/// the repo root (as ctest runs the suite). They were written by the
/// per-session reference pipeline; SCANDIAG_UPDATE_REFERENCE_PIPELINE=1
/// rewrites them from the pipeline, only for an intended change to a
/// diagnosis result.
constexpr const char* kCleanRecordsPath = "tests/diagnosis/reference_pipeline_clean.golden";
constexpr const char* kNoisyRecordsPath = "tests/diagnosis/reference_pipeline_noisy.golden";

constexpr SchemeKind kPipelineSchemes[] = {SchemeKind::IntervalBased,
                                           SchemeKind::RandomSelection, SchemeKind::TwoStep,
                                           SchemeKind::Adaptive};

bool updatingRecords() {
  const char* update = std::getenv("SCANDIAG_UPDATE_REFERENCE_PIPELINE");
  return update != nullptr && std::string(update) == "1";
}

std::vector<std::string> loadRecords(const char* path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "cannot read " << path << " (run from the repo root)";
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::string writeRecords(const char* path, const std::vector<std::string>& lines) {
  std::ofstream os(path);
  for (const std::string& line : lines) os << line << '\n';
  return os.good() ? std::string("rewrote ") + path : std::string("cannot write ") + path;
}

/// Evaluates `pipeline` over `responses` and returns the case's record: every
/// DrReport field (doubles as hex floats, so equal lines mean bitwise-equal
/// values) and the nonzero counter deltas of the evaluate. A fixed schedule
/// leaves out the batch-only counters, which the reference pipeline never
/// counted; an adaptive pipeline keeps them, so a step that counted them
/// would show.
std::string recordOf(const std::string& name, const DiagnosisPipeline& pipeline,
                     const std::vector<FaultResponse>& responses) {
  const auto before = obs::MetricsRegistry::instance().snapshot();
  const DrReport r = pipeline.evaluate(responses);
  const auto after = obs::MetricsRegistry::instance().snapshot();
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%s faults=%zu candidates=%llu actual=%llu dr=%a misdiagnosed=%zu empty=%zu "
                "unresolved=%zu confidence=%a inconsistencies=%zu extra=%zu splits=%zu "
                "atpg=%zu",
                name.c_str(), r.faults, static_cast<unsigned long long>(r.sumCandidates),
                static_cast<unsigned long long>(r.sumActual), r.dr, r.misdiagnosed,
                r.emptyCandidates, r.unresolved, r.meanConfidence, r.inconsistencies,
                r.extraSessions, r.unionSplits, r.atpgPatterns);
  std::string line = buf;
  const bool fixed = pipeline.config().scheme != SchemeKind::Adaptive;
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    if (fixed && isBatchOnly(i)) continue;
    const std::uint64_t delta = after.counters[i] - before.counters[i];
    if (delta == 0) continue;
    line += ' ';
    line += obs::counterName(static_cast<obs::Counter>(i));
    line += '=' + std::to_string(delta);
  }
  return line;
}

class BatchedParity : public ::testing::Test {
 protected:
  void TearDown() override {
    setGlobalThreadCount(0);
    obs::MetricsRegistry::instance().reset();
  }
};

TEST_F(BatchedParity, VerdictsSignaturesAndCountersMatchPerFault) {
  // Engine-level oracle: for every fault, run() vs runReference() on
  // the same engine — verdict rows, signatures, and the per-fault counter
  // deltas (via DeltaCapture) must match exactly. Covers both signature
  // modes; Exact runs with pruning signatures on so errorSig is exercised.
  for (const char* circuit : kCircuits) {
    const CircuitWorkload& work = workloadFor(circuit);
    for (SchemeKind scheme : kSchemes) {
      for (SignatureMode mode : {SignatureMode::Exact, SignatureMode::Misr}) {
        const DiagnosisPipeline pipeline(
            work.topology,
            configFor(scheme, /*pruning=*/mode == SignatureMode::Exact, mode));
        const SessionEngine& engine = pipeline.engine();
        std::size_t checked = 0;
        for (const FaultResponse& r : work.responses) {
          if (!r.detected()) continue;
          if (++checked > 40) break;  // per-config cap; circuits x schemes x modes cover
          const std::string what = caseName(circuit, scheme, false) +
                                   (mode == SignatureMode::Misr ? "/misr" : "/exact");
          GroupVerdicts batched, reference;
          std::array<std::uint64_t, obs::kNumCounters> batchedDeltas{}, referenceDeltas{};
          {
            obs::DeltaCapture capture;
            batched = engine.run(pipeline.prepared(), r);
            batchedDeltas = capture.deltas();
          }
          {
            obs::DeltaCapture capture;
            reference = engine.runReference(pipeline.prepared(), r);
            referenceDeltas = capture.deltas();
          }
          expectSameVerdicts(batched, reference, what);
          expectCounterParity(batchedDeltas, referenceDeltas, what);
          // The batched scorer must also account its own work: one score per
          // session of the schedule.
          EXPECT_EQ(batchedDeltas[static_cast<std::size_t>(obs::Counter::BatchedGroupScores)],
                    pipeline.prepared().totalGroups())
              << what;
        }
        ASSERT_GT(checked, 0u) << circuit;
      }
    }
  }
}

TEST_F(BatchedParity, DrReportsBitIdenticalAcrossScorersThreadsAndPruning) {
  // Pipeline-level oracle: full DR evaluation at 1/2/8 threads, with and
  // without pruning, plus the adaptive scheme (every step scored one
  // partition at a time). Each case must reproduce the reference pipeline's
  // record — every DrReport field bitwise and the counter deltas — at every
  // thread count.
  const bool updating = updatingRecords();
  const std::vector<std::string> expected = updating ? std::vector<std::string>{}
                                                     : loadRecords(kCleanRecordsPath);
  std::vector<std::string> recorded;
  for (const char* circuit : kCircuits) {
    const CircuitWorkload& work = workloadFor(circuit);
    for (SchemeKind scheme : kPipelineSchemes) {
      for (bool pruning : {false, true}) {
        if (pruning && scheme == SchemeKind::Adaptive) continue;  // rejected by the planner
        const std::string name = caseName(circuit, scheme, pruning);
        const DiagnosisPipeline pipeline(work.topology, configFor(scheme, pruning));
        setGlobalThreadCount(1);
        recorded.push_back(recordOf(name, pipeline, work.responses));
        if (updating) continue;
        ASSERT_LT(recorded.size() - 1, expected.size()) << name << ": no recorded line";
        const std::string& want = expected[recorded.size() - 1];
        for (std::size_t threads : kThreadCounts) {
          setGlobalThreadCount(threads);
          const std::string actual =
              threads == 1 ? recorded.back() : recordOf(name, pipeline, work.responses);
          EXPECT_EQ(actual, want) << name << " @" << threads << " threads";
        }
      }
    }
  }
  if (updating) GTEST_SKIP() << writeRecords(kCleanRecordsPath, recorded);
  EXPECT_EQ(recorded.size(), expected.size());
}

TEST_F(BatchedParity, NoisyPipelineBitIdenticalAcrossScorers) {
  // The ±noise dimension: the corruptor perturbs *verdicts* and the retry
  // path re-runs partitions one at a time, so the whole resilient report —
  // DR, misdiagnosis rate, retry accounting — must match the reference
  // pipeline's record too. The adaptive cases retry the steps they chose, in
  // exact and in MISR signature mode.
  NoiseConfig noise;
  noise.flipRate = 0.02;
  noise.intermittentRate = 0.01;
  noise.seed = 0xBA7C;
  RetryPolicy retry;
  retry.maxRetriesPerSession = 2;
  retry.sessionBudget = 64;
  struct Case {
    SchemeKind scheme;
    SignatureMode mode;
  };
  const Case cases[] = {{SchemeKind::IntervalBased, SignatureMode::Exact},
                        {SchemeKind::RandomSelection, SignatureMode::Exact},
                        {SchemeKind::TwoStep, SignatureMode::Exact},
                        {SchemeKind::Adaptive, SignatureMode::Exact},
                        {SchemeKind::Adaptive, SignatureMode::Misr}};
  const bool updating = updatingRecords();
  const std::vector<std::string> expected = updating ? std::vector<std::string>{}
                                                     : loadRecords(kNoisyRecordsPath);
  std::vector<std::string> recorded;
  for (const std::string circuit : {"s344", "s953"}) {
    const CircuitWorkload& work = workloadFor(circuit);
    for (const Case& c : cases) {
      const std::string name = circuit + "/" + schemeName(c.scheme) + "+noise" +
                               (c.mode == SignatureMode::Misr ? "/misr" : "");
      const DiagnosisPipeline pipeline(work.topology, configFor(c.scheme, false, c.mode), noise,
                                       retry);
      setGlobalThreadCount(1);
      recorded.push_back(recordOf(name, pipeline, work.responses));
      if (updating) continue;
      ASSERT_LT(recorded.size() - 1, expected.size()) << name << ": no recorded line";
      const std::string& want = expected[recorded.size() - 1];
      for (std::size_t threads : kThreadCounts) {
        setGlobalThreadCount(threads);
        const std::string actual =
            threads == 1 ? recorded.back() : recordOf(name, pipeline, work.responses);
        EXPECT_EQ(actual, want) << name << " @" << threads << " threads";
      }
    }
  }
  if (updating) GTEST_SKIP() << writeRecords(kNoisyRecordsPath, recorded);
  EXPECT_EQ(recorded.size(), expected.size());
}

TEST_F(BatchedParity, ScratchReuseMatchesFreshScratch) {
  // A worker reuses one SessionBatchScratch across its whole fault chunk;
  // stale buffer contents from fault i must never leak into fault i+1.
  const CircuitWorkload& work = workloadFor("s526");
  const DiagnosisPipeline pipeline(work.topology,
                                   configFor(SchemeKind::TwoStep, true));
  const SessionEngine& engine = pipeline.engine();
  SessionBatchScratch reused;
  std::size_t checked = 0;
  for (const FaultResponse& r : work.responses) {
    if (!r.detected()) continue;
    if (++checked > 60) break;
    const GroupVerdicts withReuse = engine.run(pipeline.prepared(), r, &reused);
    const GroupVerdicts fresh = engine.run(pipeline.prepared(), r);
    expectSameVerdicts(withReuse, fresh, "scratch reuse fault " + std::to_string(checked));
  }
  ASSERT_GT(checked, 2u);
}

}  // namespace
}  // namespace scandiag

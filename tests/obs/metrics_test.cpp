// MetricsRegistry / shim / DeltaCapture / JSON-export contract tests (test_obs).

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace scandiag::obs {
namespace {

/// Leaves the registry zeroed for the next test in this process.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::instance().reset(); }
  void TearDown() override { MetricsRegistry::instance().reset(); }
};

std::uint64_t delta(const DeltaCapture& capture, Counter c) {
  return capture.deltas()[static_cast<std::size_t>(c)];
}

TEST_F(MetricsTest, NamesAreUniqueAndStable) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kNumCounters; ++i)
    names.push_back(counterName(static_cast<Counter>(i)));
  for (std::size_t i = 0; i < kNumPhases; ++i)
    names.push_back(phaseName(static_cast<Phase>(i)));
  for (std::size_t a = 0; a < names.size(); ++a) {
    EXPECT_NE(names[a].find_first_not_of("abcdefghijklmnopqrstuvwxyz_"), 0u) << names[a];
    EXPECT_EQ(names[a].rfind("unknown", 0), std::string::npos) << names[a];
    for (std::size_t b = a + 1; b < names.size(); ++b) EXPECT_NE(names[a], names[b]);
  }
  // These names are the JSON schema; renaming one is a schema_version bump.
  EXPECT_STREQ(counterName(Counter::SessionsRun), "sessions_run");
  EXPECT_STREQ(phaseName(Phase::GoodMachineSim), "good_machine_sim");
  EXPECT_STREQ(phaseName(Phase::Atpg), "atpg");
}

TEST_F(MetricsTest, AddIsVisibleInSnapshot) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.add(Counter::SessionsRun, 7);
  registry.add(Counter::SessionsRun);
  registry.add(Counter::FaultsSimulated, 3);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter(Counter::SessionsRun), 8u);
  EXPECT_EQ(snap.counter(Counter::FaultsSimulated), 3u);
  EXPECT_EQ(snap.counter(Counter::RetrySessionsSpent), 0u);
}

TEST_F(MetricsTest, ResetZeroesEverything) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.add(Counter::SessionsRun, 5);
  registry.addPhase(Phase::Recovery, 100);
  registry.recordWorker(2, 50);
  registry.reset();
  EXPECT_EQ(registry.snapshot(), MetricsSnapshot{});
}

TEST_F(MetricsTest, CounterSaturatesInsteadOfWrapping) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.add(Counter::SessionsRun, UINT64_MAX - 5);
  registry.add(Counter::SessionsRun, 3);  // still exact below the cap
  EXPECT_EQ(registry.snapshot().counter(Counter::SessionsRun), UINT64_MAX - 2);
  registry.add(Counter::SessionsRun, 10);  // would wrap: clamps
  EXPECT_EQ(registry.snapshot().counter(Counter::SessionsRun), UINT64_MAX);
  registry.add(Counter::SessionsRun, 1);  // sticks at the cap
  EXPECT_EQ(registry.snapshot().counter(Counter::SessionsRun), UINT64_MAX);
}

TEST_F(MetricsTest, ConcurrentAddsAreExact) {
  // 8 threads hammering the same counters; totals must be exact (the CAS loop
  // never drops an increment). Run under TSan in CI for race-freedom.
  MetricsRegistry& registry = MetricsRegistry::instance();
  constexpr std::size_t kThreads = 8, kIters = 20000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (std::size_t i = 0; i < kIters; ++i) {
        registry.add(Counter::SessionsRun);
        registry.add(Counter::SignatureWordsHashed, 3);
        registry.addPhase(Phase::FaultySim, 1);
        registry.recordWorker(1, 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter(Counter::SessionsRun), kThreads * kIters);
  EXPECT_EQ(snap.counter(Counter::SignatureWordsHashed), 3u * kThreads * kIters);
  EXPECT_EQ(snap.phase(Phase::FaultySim).calls, kThreads * kIters);
  EXPECT_EQ(snap.phase(Phase::FaultySim).nanos, kThreads * kIters);
  ASSERT_EQ(snap.workers.size(), 1u);
  EXPECT_EQ(snap.workers[0].worker, 1u);
  EXPECT_EQ(snap.workers[0].tasks, kThreads * kIters);
}

TEST_F(MetricsTest, WorkerLanesBeyondTrackingLimitAreDropped) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.recordWorker(kMaxTrackedWorkers, 10);
  registry.recordWorker(kMaxTrackedWorkers + 7, 10);
  EXPECT_TRUE(registry.snapshot().workers.empty());
  registry.recordWorker(kMaxTrackedWorkers - 1, 10);
  ASSERT_EQ(registry.snapshot().workers.size(), 1u);
  EXPECT_EQ(registry.snapshot().workers[0].worker, kMaxTrackedWorkers - 1);
}

TEST_F(MetricsTest, CountShimAddsToRegistry) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  count(Counter::FaultsDiagnosed);
  EXPECT_EQ(registry.snapshot().counter(Counter::FaultsDiagnosed), 1u);
  count(Counter::FaultsDiagnosed);
  EXPECT_EQ(registry.snapshot().counter(Counter::FaultsDiagnosed), 2u);
}

TEST_F(MetricsTest, DeltaCaptureSeesOnlyItsOwnThreadInsideItsScope) {
  count(Counter::SessionsRun, 100);  // before the scope: not captured
  {
    DeltaCapture capture;
    count(Counter::SessionsRun, 3);
    count(Counter::FaultsDiagnosed);
    std::thread other([] {
      count(Counter::SessionsRun, 1000);
      count(Counter::UnionSplits);
    });
    other.join();
    EXPECT_EQ(delta(capture, Counter::SessionsRun), 3u);
    EXPECT_EQ(delta(capture, Counter::FaultsDiagnosed), 1u);
    EXPECT_EQ(delta(capture, Counter::UnionSplits), 0u);
  }
}

TEST_F(MetricsTest, NestedDeltaCaptureMergesIntoOuterOnExit) {
  DeltaCapture outer;
  count(Counter::SessionsRun, 2);
  {
    DeltaCapture inner;
    count(Counter::SessionsRun, 3);
    count(Counter::FaultsDiagnosed);
    EXPECT_EQ(delta(inner, Counter::SessionsRun), 3u);
    EXPECT_EQ(delta(inner, Counter::FaultsDiagnosed), 1u);
    // The inner capture shadows the outer one while it is live.
    EXPECT_EQ(delta(outer, Counter::SessionsRun), 2u);
    EXPECT_EQ(delta(outer, Counter::FaultsDiagnosed), 0u);
  }
  EXPECT_EQ(delta(outer, Counter::SessionsRun), 5u);
  EXPECT_EQ(delta(outer, Counter::FaultsDiagnosed), 1u);
  count(Counter::SessionsRun);
  EXPECT_EQ(delta(outer, Counter::SessionsRun), 6u);
}

TEST_F(MetricsTest, RegistryTotalsDoNotDependOnActiveCaptures) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  const auto work = [] {
    count(Counter::SessionsRun, 4);
    count(Counter::PartitionsEvaluated);
    count(Counter::DegradedSupersets, 2);
  };
  work();
  work();
  const MetricsSnapshot uncaptured = registry.snapshot();
  registry.reset();
  {
    DeltaCapture outer;
    work();
    {
      DeltaCapture inner;
      work();
    }
  }
  EXPECT_EQ(registry.snapshot().counters, uncaptured.counters);
}

TEST_F(MetricsTest, PhaseScopeAccumulatesIntoItsPhase) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  {
    PhaseScope outer(Phase::SignatureCompare);
    PhaseScope inner(Phase::SignatureCompare);
  }
  { WorkerScope lane(3); }
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.phase(Phase::SignatureCompare).calls, 2u);
  EXPECT_EQ(snap.phase(Phase::CandidateIntersection).calls, 0u);
  ASSERT_EQ(snap.workers.size(), 1u);
  EXPECT_EQ(snap.workers[0].worker, 3u);
  EXPECT_EQ(snap.workers[0].tasks, 1u);
}

// populatedSnapshot() under context {"s9234", "two-step", 4}, as compact JSON.
constexpr const char* kPopulatedSnapshotJson =
    R"({"schema_version":1,"circuit":"s9234","scheme":"two-step","threads":4,)"
    R"("counters":{"sessions_run":18446744073709551615,"partitions_evaluated":22,)"
    R"("partitions_generated":33,"faults_simulated":44,"faults_graded":55,)"
    R"("faults_diagnosed":66,"signature_words_hashed":1152921504606847054,)"
    R"("retry_sessions_spent":88,"inconsistencies_detected":99,"noise_events_injected":110,)"
    R"("cone_cache_hits":121,"scratch_gates_touched":132,"journal_records_written":143,)"
    R"("journal_records_replayed":154,"watchdog_cancels":165,"batched_group_scores":176,)"
    R"("batch_contrib_cells":187,"serve_requests_ok":198,"serve_requests_shed":209,)"
    R"("serve_deadline_degraded":220,"serve_frames_rejected":231,"core_class_hits":242,)"
    R"("core_class_misses":253,"adaptive_sessions_saved":264,"adaptive_candidates_pruned":275,)"
    R"("defect_scenarios_run":286,"union_splits":297,"atpg_patterns_generated":308,)"
    R"("degraded_supersets":319,"adaptive_positions_scored":330},)"
    R"("phases":{"good_machine_sim":{"nanos":1000,"calls":1},)"
    R"("faulty_sim":{"nanos":2000,"calls":1},"partition_gen":{"nanos":3000,"calls":1},)"
    R"("signature_compare":{"nanos":4000,"calls":1},)"
    R"("candidate_intersection":{"nanos":5000,"calls":1},"recovery":{"nanos":6000,"calls":1},)"
    R"("atpg":{"nanos":7000,"calls":1}},)"
    R"("workers":[{"worker":0,"busy_nanos":123,"tasks":1},)"
    R"({"worker":5,"busy_nanos":456,"tasks":1}]})";

MetricsSnapshot populatedSnapshot() {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.reset();
  for (std::size_t i = 0; i < kNumCounters; ++i)
    registry.add(static_cast<Counter>(i), 11 * (i + 1));
  // Values above 2^53 and the saturation cap must be written exactly —
  // doubles cannot represent them.
  registry.add(Counter::SignatureWordsHashed, (std::uint64_t{1} << 60) + 1);
  registry.add(Counter::SessionsRun, UINT64_MAX);  // saturates
  for (std::size_t i = 0; i < kNumPhases; ++i)
    registry.addPhase(static_cast<Phase>(i), 1000 * (i + 1));
  registry.recordWorker(0, 123);
  registry.recordWorker(5, 456);
  return registry.snapshot();
}

TEST_F(MetricsTest, JsonExportRoundTripsExactly) {
  const MetricsSnapshot snap = populatedSnapshot();
  std::ostringstream out;
  {
    JsonWriter writer(out, /*pretty=*/false);
    writeMetricsObject(writer, snap, MetricsContext{"s9234", "two-step", 4});
  }
  EXPECT_EQ(out.str(), kPopulatedSnapshotJson);
}

TEST_F(MetricsTest, WriteMetricsFileRoundTrips) {
  const MetricsSnapshot snap = populatedSnapshot();
  const std::string path = ::testing::TempDir() + "scandiag_metrics_test.json";
  writeMetricsFile(path, MetricsContext{"s9234", "two-step", 4});

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream written;
  written << in.rdbuf();
  // The file is the pretty-printed form of the same document, newline-ended.
  std::ostringstream expected;
  {
    JsonWriter writer(expected);
    writeMetricsObject(writer, snap, MetricsContext{"s9234", "two-step", 4});
  }
  expected << '\n';
  EXPECT_EQ(written.str(), expected.str());
  EXPECT_NE(written.str().find("\"sessions_run\": 18446744073709551615,"), std::string::npos);
}

}  // namespace
}  // namespace scandiag::obs

// Recorded schedules of the adaptive planner. For every fault of four
// topologies — a soc1-shaped single meta chain, a ragged fromChains
// stitching, s953 on 4 block chains — and for clean runs and runs whose
// RowObserver corrupts verdict rows, the record holds the chosen pool
// indices, each step's survivorPositions / survivorCells /
// cumulativeSessions, and a digest of the final candidate set
// (tests/diagnosis/adaptive_schedule.golden). Any change to how the planner
// scores, picks, intersects or expands must reproduce every line;
// SCANDIAG_UPDATE_ADAPTIVE_SCHEDULE=1 rewrites the file, only for an
// intended change to the schedules.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/scandiag.hpp"
#include "diagnosis/adaptive_planner.hpp"

namespace scandiag {
namespace {

constexpr const char* kRecordsPath = "tests/diagnosis/adaptive_schedule.golden";

bool updatingRecords() {
  const char* update = std::getenv("SCANDIAG_UPDATE_ADAPTIVE_SCHEDULE");
  return update != nullptr && std::string(update) == "1";
}

/// FNV-1a over the set bit indices of `bits`, then its size.
std::uint64_t digestOf(const BitVector& bits, std::uint64_t h = 0xcbf29ce484222325ULL) {
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::size_t i = bits.findFirst(); i != BitVector::npos; i = bits.findNext(i)) mix(i);
  mix(bits.size());
  return h;
}

/// A deterministic tester fault: on every third (fault, step) pair, flips
/// one group's verdict, so both a lost failing group and a spurious one
/// reach the planner's next decision.
AdaptivePlanner::RowObserver corruptingObserver(std::size_t fault) {
  return [fault](std::size_t step, std::size_t poolIndex, PartitionVerdictRow& row) {
    if ((fault + step) % 3 != 0 || row.failing.size() == 0) return;
    row.failing.flip((fault * 7 + step * 3 + poolIndex) % row.failing.size());
  };
}

void appendRecords(const std::string& name, const ScanTopology& topology,
                   const DiagnosisConfig& config, const std::vector<FaultResponse>& responses,
                   std::vector<std::string>& lines) {
  const DiagnosisPipeline pipeline(topology, config);
  const AdaptivePlanner* planner = pipeline.adaptive();
  ASSERT_NE(planner, nullptr);
  for (const bool noisy : {false, true}) {
    for (std::size_t f = 0; f < responses.size(); ++f) {
      const AdaptiveOutcome o =
          planner->run(pipeline.engine(), responses[f],
                       noisy ? corruptingObserver(f) : AdaptivePlanner::RowObserver{});
      std::string line = name + (noisy ? "/noisy" : "/clean") + " f" + std::to_string(f) + " picks=";
      for (std::size_t k = 0; k < o.chosen.size(); ++k) {
        line += (k ? "," : "") + std::to_string(o.chosen[k]);
      }
      line += " steps=";
      for (std::size_t k = 0; k < o.steps.size(); ++k) {
        const AdaptiveStepTrace& s = o.steps[k];
        line += (k ? ";" : "") + std::to_string(s.survivorPositions) + "/" +
                std::to_string(s.survivorCells) + "/" + std::to_string(s.cumulativeSessions);
      }
      char tail[96];
      std::snprintf(tail, sizeof tail, " used=%zu cells=%zu digest=%016llx", o.sessionsUsed,
                    o.candidates.cells.count(),
                    static_cast<unsigned long long>(
                        digestOf(o.candidates.cells, digestOf(o.candidates.positions))));
      lines.push_back(line + tail);
    }
  }
}

/// s1423's 74 cells on three chains of 41, 22 and 11, stitched with a
/// stride so neighbouring cells land on different chains and positions.
ScanTopology raggedTopology(std::size_t numCells) {
  const std::size_t lengths[] = {41, 22, numCells - 63};
  std::vector<std::vector<std::size_t>> chains(3);
  std::size_t cell = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t p = 0; p < lengths[c]; ++p) {
      chains[c].push_back(cell);
      cell = (cell + 5) % numCells;  // 5 is coprime to 74: a permutation
    }
  }
  return ScanTopology::fromChains(std::move(chains));
}

std::vector<std::string> currentRecords() {
  std::vector<std::string> lines;

  // soc1: one 6,173-position meta chain, about 50 faults in each core.
  {
    const Soc soc = buildSoc1();
    WorkloadConfig wc = presets::socWorkload();
    wc.numFaults = 50;
    std::vector<FaultResponse> responses;
    for (std::size_t k = 0; k < soc.coreCount(); ++k) {
      for (FaultResponse& r : socResponsesForFailingCore(soc, k, wc)) {
        responses.push_back(std::move(r));
      }
    }
    appendRecords("soc1", soc.topology(), presets::soc1Config(SchemeKind::Adaptive, false),
                  responses, lines);
  }

  DiagnosisConfig small;
  small.scheme = SchemeKind::Adaptive;
  small.numPartitions = 8;
  small.groupsPerPartition = 4;
  small.numPatterns = 128;
  WorkloadConfig wc;
  wc.numPatterns = 128;
  wc.numFaults = 60;

  // Ragged stitching: unequal chains, so the tail of the selection axis
  // reaches only the longest chain.
  {
    const CircuitWorkload work = prepareWorkload(generateNamedCircuit("s1423"), wc);
    EXPECT_EQ(work.topology.numCells(), 74u);
    appendRecords("s1423-ragged", raggedTopology(work.topology.numCells()), small,
                  work.responses, lines);
  }

  // s953 on 4 balanced block chains.
  {
    const CircuitWorkload work = prepareWorkload(generateNamedCircuit("s953"), wc, 4);
    appendRecords("s953-4chains", work.topology, small, work.responses, lines);
  }
  return lines;
}

TEST(AdaptiveSchedule, MatchesRecordedFixture) {
  const std::vector<std::string> lines = currentRecords();
  if (updatingRecords()) {
    std::ofstream os(kRecordsPath);
    for (const std::string& line : lines) os << line << '\n';
    ASSERT_TRUE(os.good()) << "cannot write " << kRecordsPath;
    GTEST_SKIP() << "rewrote " << kRecordsPath;
  }
  std::ifstream is(kRecordsPath);
  ASSERT_TRUE(is.good()) << "cannot read " << kRecordsPath << " (run from the repo root)";
  std::vector<std::string> recorded;
  for (std::string line; std::getline(is, line);) recorded.push_back(line);
  ASSERT_EQ(lines.size(), recorded.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], recorded[i]) << "record " << i;
  }
}

}  // namespace
}  // namespace scandiag

// PODEM parity fixture: pins, per target, the outcome, the decision and
// backtrack counts and a digest of the generated cube. Any change to how
// implication, the D-frontier or the observation test are computed must keep
// every record identical: the search is a pure function of the values it
// reads, so equal values mean an equal decision tree.
//
// Targets:
//  * every DFF D-pin stuck-at of s13207 at the defect ladder's backtrack
//    limit (the stall-breaker's own targets);
//  * a fixed sample of collapsed output and branch faults on s953 and s1423,
//    which exercise D-frontier propagation to POs and scan cells.
//
// The records live in tests/atpg/podem_parity.golden (one line per target:
// circuit, gate, pin, stuck-at, outcome, decisions, backtracks, FNV-1a of the
// cube's care and value words). SCANDIAG_UPDATE_PODEM_PARITY=1 rewrites it.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "atpg/podem.hpp"
#include "netlist/synthetic_generator.hpp"
#include "sim/fault_list.hpp"

namespace scandiag {
namespace {

constexpr const char* kGoldenPath = "tests/atpg/podem_parity.golden";
constexpr std::size_t kLadderBacktrackLimit = 2000;  // the defect ladder's limit
constexpr std::size_t kSampleBacktrackLimit = 100;
constexpr std::size_t kSampleSize = 300;
constexpr std::uint64_t kSampleSeed = 0x9A817;

std::uint64_t cubeDigest(const TestCube& cube) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const BitVector* v : {&cube.care, &cube.value}) {
    mix(v->size());
    for (std::size_t w = 0; w < v->wordCount(); ++w) mix(v->word(w));
  }
  return h;
}

char outcomeCode(AtpgOutcome o) {
  switch (o) {
    case AtpgOutcome::Detected: return 'D';
    case AtpgOutcome::Untestable: return 'U';
    case AtpgOutcome::Aborted: return 'A';
  }
  return '?';
}

std::string record(const char* circuit, const FaultSite& f, const AtpgResult& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s %u %d %d %c %zu %zu %016llx", circuit, f.gate, f.pin,
                f.stuckAt ? 1 : 0, outcomeCode(r.outcome), r.stats.decisions,
                r.stats.backtracks, static_cast<unsigned long long>(cubeDigest(r.cube)));
  return buf;
}

std::vector<std::string> computeRecords() {
  std::vector<std::string> out;
  {
    const Netlist nl = generateNamedCircuit("s13207");
    const PodemAtpg atpg(nl);
    for (const GateId dff : nl.dffs()) {
      for (const bool stuckAt : {false, true}) {
        const FaultSite f{dff, 0, stuckAt};
        out.push_back(record("s13207", f, atpg.generate(f, kLadderBacktrackLimit)));
      }
    }
  }
  for (const char* circuit : {"s953", "s1423"}) {
    const Netlist nl = generateNamedCircuit(circuit);
    const PodemAtpg atpg(nl);
    const FaultList universe = FaultList::enumerateCollapsed(nl);
    for (const FaultSite& f : universe.sample(kSampleSize, kSampleSeed))
      out.push_back(record(circuit, f, atpg.generate(f, kSampleBacktrackLimit)));
  }
  return out;
}

TEST(PodemParity, EveryTargetMatchesTheRecordedSearch) {
  const std::vector<std::string> actual = computeRecords();
  if (const char* update = std::getenv("SCANDIAG_UPDATE_PODEM_PARITY");
      update != nullptr && std::string(update) == "1") {
    std::ofstream os(kGoldenPath);
    for (const std::string& line : actual) os << line << '\n';
    ASSERT_TRUE(os.good()) << "cannot write " << kGoldenPath;
    GTEST_SKIP() << "rewrote " << kGoldenPath;
  }
  std::ifstream is(kGoldenPath);
  ASSERT_TRUE(is.good()) << "cannot read " << kGoldenPath << " (run from the repo root)";
  std::vector<std::string> expected;
  for (std::string line; std::getline(is, line);) expected.push_back(line);
  ASSERT_EQ(actual.size(), expected.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] == expected[i]) continue;
    if (++mismatches <= 10) ADD_FAILURE() << "want " << expected[i] << "\n got " << actual[i];
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(PodemParity, SampleCoversEveryOutcomeAndFaultKind) {
  // The fixture is only as strong as its spread: it must hold detected,
  // untestable and aborted searches, and both output and branch faults.
  std::ifstream is(kGoldenPath);
  ASSERT_TRUE(is.good()) << "cannot read " << kGoldenPath << " (run from the repo root)";
  std::size_t outcomes[3] = {0, 0, 0};
  std::size_t outputFaults = 0, branchFaults = 0;
  for (std::string line; std::getline(is, line);) {
    std::istringstream fields(line);
    std::string circuit;
    unsigned gate = 0;
    int pin = 0, sa = 0;
    char outcome = '?';
    fields >> circuit >> gate >> pin >> sa >> outcome;
    if (outcome == 'D') ++outcomes[0];
    if (outcome == 'U') ++outcomes[1];
    if (outcome == 'A') ++outcomes[2];
    if (circuit == "s13207") continue;
    (pin == FaultSite::kOutputPin ? outputFaults : branchFaults) += 1;
  }
  EXPECT_GT(outcomes[0], 0u);
  EXPECT_GT(outcomes[1], 0u);
  EXPECT_GT(outcomes[2], 0u);
  EXPECT_GT(outputFaults, 0u);
  EXPECT_GT(branchFaults, 0u);
}

}  // namespace
}  // namespace scandiag

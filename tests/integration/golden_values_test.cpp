// Golden regression values: the full pipeline is deterministic (explicit
// seeds everywhere, integer arithmetic up to the final division), so these
// exact candidate/actual sums must reproduce on any platform. A change here
// means the *behaviour* of some stage changed — generator, PRPG, fault
// simulator, partitioners, session engine, or pruner — and EXPERIMENTS.md
// needs regeneration. Update the constants only after confirming the change
// is intentional.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scandiag.hpp"
#include "diagnosis/adaptive_planner.hpp"

namespace scandiag {
namespace {

TEST(GoldenValues, S953Table1StyleSums) {
  const Netlist nl = generateNamedCircuit("s953");
  WorkloadConfig wc = presets::table1Workload();
  wc.numFaults = 200;
  const CircuitWorkload work = prepareWorkload(nl, wc);
  ASSERT_EQ(work.responses.size(), 200u);

  struct Expect {
    SchemeKind scheme;
    std::uint64_t candidates;
  };
  const Expect expectations[] = {
      {SchemeKind::IntervalBased, 1421},
      {SchemeKind::RandomSelection, 1018},
      {SchemeKind::TwoStep, 896},
  };
  for (const Expect& e : expectations) {
    const DiagnosisPipeline pipeline(work.topology, presets::table1(e.scheme, 8));
    const DrReport r = pipeline.evaluate(work.responses);
    EXPECT_EQ(r.sumCandidates, e.candidates) << schemeName(e.scheme);
    EXPECT_EQ(r.sumActual, 632u) << schemeName(e.scheme);
    EXPECT_EQ(r.faults, 200u);
  }
}

TEST(GoldenValues, S9234TwoStepWithAndWithoutPruning) {
  const Netlist nl = generateNamedCircuit("s9234");
  WorkloadConfig wc = presets::table2Workload();
  wc.numFaults = 200;
  const CircuitWorkload work = prepareWorkload(nl, wc);

  const DiagnosisPipeline plain(work.topology, presets::table2(SchemeKind::TwoStep, false));
  const DrReport a = plain.evaluate(work.responses);
  EXPECT_EQ(a.sumCandidates, 490u);
  EXPECT_EQ(a.sumActual, 474u);

  const DiagnosisPipeline pruned(work.topology, presets::table2(SchemeKind::TwoStep, true));
  const DrReport b = pruned.evaluate(work.responses);
  EXPECT_EQ(b.sumCandidates, 474u);  // pruning reaches perfect resolution here
  EXPECT_EQ(b.sumActual, 474u);
}

// FNV-1a over 64-bit values: the fingerprints below fold whole generator
// outputs into one number, so any change to a constant of the synthetic
// netlist model, the PRPG or the selection hardware fails here by name.
struct Fnv {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    hash ^= v;
    hash *= 0x100000001b3ULL;
  }
};

std::uint64_t netlistFingerprint(const Netlist& nl) {
  Fnv f;
  for (GateId id = 0; id < nl.gateCount(); ++id) {
    f.add(static_cast<std::uint64_t>(nl.gate(id).type));
    for (GateId fanin : nl.gate(id).fanins) f.add(fanin);
  }
  return f.hash;
}

/// Everything netlistFingerprint folds, plus the inputs, outputs and DFFs in
/// their list order and every gate name byte by byte: pins what the
/// generator's storage and fanin search must keep beyond the wiring.
std::uint64_t fullNetlistFingerprint(const Netlist& nl) {
  Fnv f;
  f.add(nl.gateCount());
  for (GateId id = 0; id < nl.gateCount(); ++id) {
    f.add(static_cast<std::uint64_t>(nl.gate(id).type));
    f.add(nl.gate(id).fanins.size());
    for (GateId fanin : nl.gate(id).fanins) f.add(fanin);
    const std::string& name = nl.gateName(id);
    f.add(name.size());
    for (char c : name) f.add(static_cast<unsigned char>(c));
  }
  for (const std::vector<GateId>* list : {&nl.inputs(), &nl.outputs(), &nl.dffs()}) {
    f.add(list->size());
    for (GateId id : *list) f.add(id);
  }
  return f.hash;
}

std::uint64_t patternFingerprint(const Netlist& nl, const PatternSet& patterns) {
  Fnv f;
  for (GateId id = 0; id < nl.gateCount(); ++id) {
    if (!patterns.isSource(id)) continue;
    f.add(id);
    for (std::size_t w = 0; w < patterns.wordCount(); ++w) f.add(patterns.word(id, w));
  }
  return f.hash;
}

std::uint64_t partitionFingerprint(const std::vector<Partition>& partitions) {
  Fnv f;
  for (const Partition& p : partitions) {
    f.add(p.groupCount());
    for (std::size_t g : p.groupTable()) f.add(g);
  }
  return f.hash;
}

/// Fingerprints recorded for every ISCAS-89 profile.
const std::map<std::string, std::uint64_t>& recordedNetlistFingerprints() {
  static const std::map<std::string, std::uint64_t> m = {
      {"s27", 0x9b475cc4dd36ddbeULL},
      {"s208", 0x83092c7c236b880fULL},
      {"s298", 0xe864c780c6088dc2ULL},
      {"s344", 0x2fa41bca41e6cdffULL},
      {"s349", 0xe20b152195d43264ULL},
      {"s382", 0x7f7fb37bf506b463ULL},
      {"s386", 0xb4af91fcc27d3b15ULL},
      {"s400", 0x7389491aa6ce9e09ULL},
      {"s420", 0x85b74f9a3d7f0073ULL},
      {"s444", 0x501fca7b10f0b824ULL},
      {"s510", 0xd413f6082bc7520dULL},
      {"s526", 0x6c9c1743ecc3a7dcULL},
      {"s641", 0xcca273bd1a343fa0ULL},
      {"s713", 0xac7edd9d3d60a0c1ULL},
      {"s820", 0xe59d545fffeba5ebULL},
      {"s832", 0x602a2b623eeeb8f9ULL},
      {"s838", 0xa9ef7d2f7252b1cfULL},
      {"s953", 0xb6cd5024a69d89c8ULL},
      {"s1196", 0x303231646f759ce3ULL},
      {"s1238", 0x191afa2934028c8aULL},
      {"s1423", 0x8622b05ba88d7a77ULL},
      {"s1488", 0xa351ab501df89707ULL},
      {"s1494", 0xbfb13e7179b5f59fULL},
      {"s5378", 0x63cde476b9287385ULL},
      {"s9234", 0x8ef32434cbbde264ULL},
      {"s13207", 0x97001e72cad8149ULL},
      {"s15850", 0x652c7c09cb4fec70ULL},
      {"s35932", 0x4c5f32ee2608c4a1ULL},
      {"s38417", 0xf7e950ac4913f885ULL},
      {"s38584", 0x29ffe4512c01a906ULL},
  };
  return m;
}

/// Full fingerprints (fullNetlistFingerprint) recorded for every profile.
const std::map<std::string, std::uint64_t>& recordedFullNetlistFingerprints() {
  static const std::map<std::string, std::uint64_t> m = {
      {"s27", 0x438e71bfee25bc85ULL},
      {"s208", 0x7867d7a9a6a5bb0ULL},
      {"s298", 0xcad22a23d473cceaULL},
      {"s344", 0x28d5aec8c19b57d6ULL},
      {"s349", 0x6387f6d99c968e59ULL},
      {"s382", 0x5c306ca4dffe167bULL},
      {"s386", 0xa4c2d314fe1a6e32ULL},
      {"s400", 0xb09ca66b1c8aeb36ULL},
      {"s420", 0x3dbc6c550a060c4bULL},
      {"s444", 0x6fd420a29cd8287aULL},
      {"s510", 0xb6534132d9e2d284ULL},
      {"s526", 0x3c49788f1d835698ULL},
      {"s641", 0x4217ea5c3d6a64dbULL},
      {"s713", 0x201ddd0748d7679aULL},
      {"s820", 0xc000f60407f4864ULL},
      {"s832", 0x9e0af9a3f896476aULL},
      {"s838", 0x7b04a54d55f0b97eULL},
      {"s953", 0x988ed73190f942b3ULL},
      {"s1196", 0xc6f0040f7d5a8647ULL},
      {"s1238", 0x7f460bfbd938c2a5ULL},
      {"s1423", 0xa1871fb8e9fa5111ULL},
      {"s1488", 0x5c85c1b4a76af13dULL},
      {"s1494", 0x471ad4e1a1d5288bULL},
      {"s5378", 0x1d84637b5909ba9ULL},
      {"s9234", 0xdee3d12d5accda80ULL},
      {"s13207", 0xdf19b713d2a8dd41ULL},
      {"s15850", 0xa7bebbb849046de1ULL},
      {"s35932", 0xce633b583abe4d87ULL},
      {"s38417", 0x1a8b18af4c1fb86aULL},
      {"s38584", 0x439a6882f0358f77ULL},
  };
  return m;
}

std::vector<std::string> profileNames() {
  std::vector<std::string> names;
  for (const Iscas89Profile& p : iscas89Profiles()) names.push_back(p.name);
  return names;
}

class NetlistFingerprint : public ::testing::TestWithParam<std::string> {};

TEST_P(NetlistFingerprint, MatchesRecordedValue) {
  // Cheap structural fingerprint of each ISCAS-89 reconstruction: any
  // generator change shows up here before it confuses a DR comparison
  // downstream.
  const auto recorded = recordedNetlistFingerprints().find(GetParam());
  ASSERT_NE(recorded, recordedNetlistFingerprints().end()) << "no fingerprint recorded";
  const std::uint64_t hash = netlistFingerprint(generateNamedCircuit(GetParam()));
  EXPECT_EQ(hash, recorded->second)
      << "netlist generator output changed; new fingerprint = 0x" << std::hex << hash;
}

TEST_P(NetlistFingerprint, FullMatchesRecordedValue) {
  const auto recorded = recordedFullNetlistFingerprints().find(GetParam());
  ASSERT_NE(recorded, recordedFullNetlistFingerprints().end()) << "no fingerprint recorded";
  const std::uint64_t hash = fullNetlistFingerprint(generateNamedCircuit(GetParam()));
  EXPECT_EQ(hash, recorded->second)
      << "netlist names, outputs or DFF order changed; new fingerprint = 0x" << std::hex << hash;
}

INSTANTIATE_TEST_SUITE_P(Profiles, NetlistFingerprint, ::testing::ValuesIn(profileNames()));

TEST(GoldenValues, S953PatternStreamFingerprints) {
  const Netlist nl = generateNamedCircuit("s953");
  PrpgConfig reseeded;
  reseeded.seed = PrpgConfig{}.seed + 1;
  const std::uint64_t defaultSeed = patternFingerprint(nl, generatePatterns(nl, 200));
  const std::uint64_t nextSeed = patternFingerprint(nl, generatePatterns(nl, 128, reseeded));
  EXPECT_EQ(defaultSeed, 0xdc5468e6d51bccfULL) << "new fingerprint = 0x" << std::hex << defaultSeed;
  EXPECT_EQ(nextSeed, 0xf9522000dd6c18ebULL) << "new fingerprint = 0x" << std::hex << nextSeed;
}

TEST(GoldenValues, FixedSchedulePartitionFingerprints) {
  struct Expect {
    SchemeKind scheme;
    std::size_t chainLength;
    std::size_t groups;
    std::uint64_t fingerprint;
  };
  const Expect expectations[] = {
      {SchemeKind::IntervalBased, 211, 8, 0x56f294797b2492acULL},
      {SchemeKind::RandomSelection, 211, 8, 0x3e2f5702b3e3e542ULL},
      {SchemeKind::TwoStep, 211, 8, 0x2512a3d148b6c3f3ULL},
      {SchemeKind::DeterministicInterval, 211, 8, 0x5009f42e89d5b0f5ULL},
      {SchemeKind::IntervalBased, 1426, 16, 0xc292fbcb014ea6dULL},
      {SchemeKind::RandomSelection, 1426, 16, 0x442db192981a1826ULL},
      {SchemeKind::TwoStep, 1426, 16, 0x17588898fb3927f2ULL},
      {SchemeKind::DeterministicInterval, 1426, 16, 0x1ce5d4fc36c2d913ULL},
  };
  for (const Expect& e : expectations) {
    DiagnosisConfig config;
    config.scheme = e.scheme;
    config.groupsPerPartition = e.groups;
    const std::uint64_t hash = partitionFingerprint(buildPartitions(config, e.chainLength));
    EXPECT_EQ(hash, e.fingerprint) << schemeName(e.scheme) << " L=" << e.chainLength
                                   << " b=" << e.groups << ": new fingerprint = 0x" << std::hex
                                   << hash;
  }
}

TEST(GoldenValues, AdaptivePoolFingerprints) {
  struct Expect {
    std::size_t cells;
    std::size_t chains;
    std::size_t groups;
    std::uint64_t fingerprint;
  };
  const Expect expectations[] = {
      {211, 1, 8, 0xfdafb11e023c3fb7ULL},
      {1426, 4, 16, 0xbe7eb6f5361dacffULL},
  };
  for (const Expect& e : expectations) {
    const ScanTopology topology = ScanTopology::blockChains(e.cells, e.chains);
    DiagnosisConfig config;
    config.scheme = SchemeKind::Adaptive;
    config.groupsPerPartition = e.groups;
    const AdaptivePlanner planner(topology, config);
    const std::uint64_t hash = partitionFingerprint(planner.pool().partitions());
    EXPECT_EQ(hash, e.fingerprint) << "cells=" << e.cells << " chains=" << e.chains
                                   << " b=" << e.groups << ": new fingerprint = 0x" << std::hex
                                   << hash;
  }
}

}  // namespace
}  // namespace scandiag

#include "inject/defect_zoo.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "atpg/podem.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_list.hpp"
#include "sim/open_faults.hpp"

namespace scandiag {

namespace {

// Seed-mixing constants for the activation streams: the VerdictCorruptor
// idiom (distinct odd multipliers per coordinate, splitmix-expanded by the
// Xoroshiro constructor) so every (scenario, component, attempt, partition)
// tuple draws an independent, replayable stream.
constexpr std::uint64_t kScenarioMix = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kComponentMix = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kAttemptMix = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kPartitionMix = 0x27d4eb2f165667c5ULL;

constexpr std::size_t kPoolSize = 256;     // bridge / open candidate pools
constexpr std::size_t kMaxDrawTries = 64;  // draws per component before giving up
/// PODEM backtracks per stall-breaker target before it counts as aborted.
constexpr std::size_t kAtpgBacktrackLimit = 2000;

double parseProbability(const std::string& token) {
  std::size_t consumed = 0;
  double p = 0.0;
  try {
    p = std::stod(token, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != token.size() || !(p > 0.0) || !(p < 1.0)) {
    throw std::invalid_argument("defect spec: intermittent probability must be in (0,1), got '" +
                                token + "'");
  }
  return p;
}

}  // namespace

const char* defectKindName(DefectKind kind) {
  switch (kind) {
    case DefectKind::StuckAt: return "stuck-at";
    case DefectKind::Bridge: return "bridge";
    case DefectKind::StuckOpen: return "stuck-open";
  }
  return "?";
}

DefectMix parseDefectSpec(const std::string& spec) {
  DefectMix mix;
  mix.bridges = false;
  mix.opens = false;
  mix.intermittentP = 0.0;
  std::vector<std::string> tokens;
  std::string token;
  std::istringstream in(spec);
  while (std::getline(in, token, ',')) tokens.push_back(token);
  if (tokens.empty()) throw std::invalid_argument("defect spec: empty (expected k[,bridge][,open][,intermittent:p])");

  // First token: k.
  {
    const std::string& first = tokens.front();
    std::size_t consumed = 0;
    unsigned long k = 0;
    try {
      k = std::stoul(first, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != first.size() || k == 0) {
      throw std::invalid_argument("defect spec: first field must be a fault count k >= 1, got '" +
                                  first + "'");
    }
    mix.k = static_cast<std::size_t>(k);
  }
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    if (t == "bridge" || t == "bridges") {
      mix.bridges = true;
    } else if (t == "open" || t == "opens") {
      mix.opens = true;
    } else if (t.rfind("intermittent:", 0) == 0) {
      mix.intermittentP = parseProbability(t.substr(std::string("intermittent:").size()));
    } else if (t.rfind("seed:", 0) == 0) {
      const std::string value = t.substr(5);
      std::size_t consumed = 0;
      unsigned long long seed = 0;
      try {
        seed = std::stoull(value, &consumed, 0);
      } catch (const std::exception&) {
        consumed = 0;
      }
      if (consumed != value.size()) {
        throw std::invalid_argument("defect spec: bad seed '" + value + "'");
      }
      mix.seed = seed;
    } else {
      throw std::invalid_argument(
          "defect spec: unknown field '" + t +
          "' (expected bridge, open, intermittent:p, or seed:n)");
    }
  }
  return mix;
}

std::string describeDefectMix(const DefectMix& mix) {
  std::ostringstream out;
  out << mix.k;
  if (mix.bridges) out << ",bridge";
  if (mix.opens) out << ",open";
  if (mix.intermittentP > 0.0) out << ",intermittent:" << mix.intermittentP;
  return out.str();
}

bool DefectScenario::intermittent() const {
  for (const DefectComponent& c : components) {
    if (c.intermittent()) return true;
  }
  return false;
}

FaultResponse composeUnionResponse(const std::vector<const FaultResponse*>& parts) {
  FaultResponse out;
  std::size_t cellUniverse = 0;
  // Ordinal-keyed merge keeps the parallel arrays sorted, matching the
  // simulator's output convention.
  std::map<std::size_t, BitVector> streams;
  for (const FaultResponse* part : parts) {
    if (part == nullptr) continue;
    if (out.failingCellOrdinals.empty() && streams.empty()) out.fault = part->fault;
    cellUniverse = std::max(cellUniverse, part->failingCells.size());
    for (std::size_t i = 0; i < part->failingCellOrdinals.size(); ++i) {
      const std::size_t ordinal = part->failingCellOrdinals[i];
      const BitVector& stream = part->errorStreams[i];
      auto [it, fresh] = streams.emplace(ordinal, stream);
      if (!fresh) {
        SCANDIAG_REQUIRE(it->second.size() == stream.size(),
                         "union overlay: mismatched error-stream lengths");
        it->second |= stream;
      }
    }
  }
  out.failingCells = BitVector(cellUniverse);
  for (auto& [ordinal, stream] : streams) {
    if (stream.none()) continue;
    out.failingCells.set(ordinal);
    out.failingCellOrdinals.push_back(ordinal);
    out.errorStreams.push_back(std::move(stream));
  }
  return out;
}

BitVector intermittentActivationMask(std::uint64_t seed, std::size_t scenario,
                                     std::size_t component, std::size_t attempt,
                                     std::size_t partition, double p,
                                     std::size_t numPatterns) {
  std::uint64_t s = seed;
  s ^= (static_cast<std::uint64_t>(scenario) + 1) * kScenarioMix;
  s ^= (static_cast<std::uint64_t>(component) + 1) * kComponentMix;
  s ^= (static_cast<std::uint64_t>(attempt) + 1) * kAttemptMix;
  s ^= (static_cast<std::uint64_t>(partition) + 1) * kPartitionMix;
  Xoroshiro128 rng(s);
  BitVector mask(numPatterns);
  for (std::size_t t = 0; t < numPatterns; ++t) {
    if (rng.nextDouble() < p) mask.set(t);
  }
  return mask;
}

FaultResponse maskResponse(const FaultResponse& response, const BitVector& activation) {
  FaultResponse out;
  out.fault = response.fault;
  out.failingCells = BitVector(response.failingCells.size());
  for (std::size_t i = 0; i < response.failingCellOrdinals.size(); ++i) {
    SCANDIAG_REQUIRE(response.errorStreams[i].size() == activation.size(),
                     "activation mask does not match the pattern count");
    BitVector masked = response.errorStreams[i] & activation;
    if (masked.none()) continue;
    out.failingCells.set(response.failingCellOrdinals[i]);
    out.failingCellOrdinals.push_back(response.failingCellOrdinals[i]);
    out.errorStreams.push_back(std::move(masked));
  }
  return out;
}

FaultResponse simulateComponent(const FaultSimulator& simulator, const DefectComponent& component) {
  switch (component.kind) {
    case DefectKind::Bridge: return simulateBridge(simulator, component.bridge);
    case DefectKind::StuckOpen: return simulateOpen(simulator, component.fault.gate);
    case DefectKind::StuckAt: break;
  }
  return simulator.simulate(component.fault);
}

// ---------------------------------------------------------------------------
// Scenario generation.

DefectScenarioGenerator::DefectScenarioGenerator(const FaultSimulator& simulator,
                                                 const DefectMix& mix)
    : sim_(&simulator), mix_(mix) {
  SCANDIAG_REQUIRE(mix.k >= 1, "defect mix needs k >= 1");
  stuckPool_ = FaultList::enumerateCollapsed(simulator.netlist()).faults();
  SCANDIAG_REQUIRE(!stuckPool_.empty(), "empty stuck-at fault universe");
  if (mix.bridges) {
    bridgePool_ = enumerateBridgeCandidates(simulator.netlist(), kPoolSize, mix.seed ^ 0xB21D6EULL);
  }
  if (mix.opens) {
    openPool_ = enumerateOpenSites(simulator.netlist(), kPoolSize, mix.seed ^ 0x00BE5ULL);
  }
}

DefectScenario DefectScenarioGenerator::generate(std::size_t index) const {
  DefectScenario out;
  out.index = index;
  out.seed = mix_.seed ^ ((static_cast<std::uint64_t>(index) + 1) * kScenarioMix);
  Xoroshiro128 rng(out.seed ^ 0xD15EA5EULL);

  std::vector<DefectKind> kinds{DefectKind::StuckAt};
  if (!bridgePool_.empty()) kinds.push_back(DefectKind::Bridge);
  if (!openPool_.empty()) kinds.push_back(DefectKind::StuckOpen);

  std::set<GateId> usedSites;
  for (std::size_t c = 0; c < mix_.k; ++c) {
    bool drawn = false;
    for (std::size_t tries = 0; tries < kMaxDrawTries && !drawn; ++tries) {
      DefectComponent comp;
      comp.kind = kinds[rng.nextBelow(kinds.size())];
      std::vector<GateId> sites;
      switch (comp.kind) {
        case DefectKind::StuckAt:
          comp.fault = stuckPool_[rng.nextBelow(stuckPool_.size())];
          sites = {comp.fault.gate};
          break;
        case DefectKind::Bridge:
          comp.bridge = bridgePool_[rng.nextBelow(bridgePool_.size())];
          sites = {comp.bridge.a, comp.bridge.b};
          break;
        case DefectKind::StuckOpen:
          comp.fault.gate = openPool_[rng.nextBelow(openPool_.size())];
          sites = {comp.fault.gate};
          break;
      }
      if (std::any_of(sites.begin(), sites.end(),
                      [&](GateId g) { return usedSites.count(g) != 0; }))
        continue;
      comp.response = simulateComponent(*sim_, comp);
      if (!comp.response.detected()) continue;
      comp.fault = comp.response.fault;
      usedSites.insert(sites.begin(), sites.end());
      out.components.push_back(std::move(comp));
      drawn = true;
    }
    SCANDIAG_REQUIRE(drawn, "could not draw a detected defect component (pool too sparse)");
  }

  if (mix_.intermittentP > 0.0) {
    // Even components are intermittent: component 0 always is (every scenario
    // of an intermittent mix exercises degradation), and with k >= 2 at least
    // one permanent component remains to anchor the union.
    for (std::size_t i = 0; i < out.components.size(); i += 2) {
      out.components[i].activation = mix_.intermittentP;
    }
  }

  std::vector<const FaultResponse*> parts;
  parts.reserve(out.components.size());
  for (const DefectComponent& comp : out.components) parts.push_back(&comp.response);
  out.composed = composeUnionResponse(parts);
  return out;
}

// ---------------------------------------------------------------------------
// Diagnosis.

DefectZooPipeline::DefectZooPipeline(const FaultSimulator& simulator,
                                     const ScanTopology& topology,
                                     const DiagnosisConfig& config, const DefectPolicy& policy)
    : sim_(&simulator),
      base_(topology, config, NoiseConfig{}, policy.retry),
      refiner_(topology, policy.refineSessionBudget, simulator.patterns().numPatterns()),
      policy_(policy),
      adiPrior_(adiPriorFromGoodCaptures(topology, simulator.goodCaptures())),
      atpg_(policy.atpgSessionBudget > 0
                ? std::make_unique<PodemAtpg>(simulator.netlist(),
                                              simulator.simulator().sharedLevelization())
                : nullptr) {
  SCANDIAG_REQUIRE(config.scheme != SchemeKind::Adaptive,
                   "defect-zoo diagnosis needs a fixed partition schedule");
}

DefectZooPipeline::~DefectZooPipeline() = default;

FaultDiagnosis DefectZooPipeline::diagnose(const DefectScenario& scenario,
                                           SessionBatchScratch* scratch) const {
  SCANDIAG_REQUIRE(!scenario.components.empty(), "empty defect scenario");
  FaultInput input{scenario.composed, scenario.index, /*multiDefect=*/true};
  if (scenario.intermittent()) {
    // Each (attempt, partition) draws its own replayable activation stream.
    input.observe = [&](std::size_t attempt, std::size_t partition) {
      return effectiveResponse(scenario, attempt, partition);
    };
    input.samples = policy_.intermittentSamples;
    return base_.diagnose(input, scratch);
  }
  // A genuine permanent union replays bit-identically, so the ladder's
  // recover stage short-circuits any DisjointFailingUnion report into the
  // checked union mode after one confirming re-run.
  FaultDiagnosis d = base_.diagnose(input, scratch);
  refine(scenario, d);
  return d;
}

void DefectZooPipeline::refine(const DefectScenario& scenario, FaultDiagnosis& d) const {
  const FaultResponse& response = scenario.composed;
  const ScanTopology& topology = base_.topology();
  const std::size_t chainLength = topology.maxChainLength();
  bool degraded = !d.resolved;
  // Recovery counts DegradedSupersets itself on the over-budget union path;
  // remember so the final accounting does not double-count.
  const bool recoveryCounted = d.unionClusters > 0 && !d.resolved;

  // Active refinement: interval sessions shrink the passive superset's
  // accidental survivors, highest-ADI segments first.
  std::size_t unresolvedLeft = 0;
  std::size_t clusters = d.unionClusters > 0 ? d.unionClusters : 1;
  if (policy_.refineSessionBudget > 0 && d.candidates.positions.any()) {
    const BitVector truePositions = topology.collapseCells(response.failingCells);
    const IntervalOracle oracle = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t p = lo; p < hi; ++p) {
        if (truePositions.test(p)) return true;
      }
      return false;
    };
    const UnionRefinement refined = refiner_.refine(d.candidates.positions, adiPrior_, oracle);
    d.unionSplits += refined.splits;
    d.extraSessions += refined.sessions;
    d.cost += refined.cost;
    d.candidates = refined.candidates;

    BitVector confirmed = refined.confirmed;
    BitVector pendingMask = refined.unresolved;
    // PODEM stall breaker: distinguishing mini-sessions targeted at the
    // unresolved positions. A manifested error CONFIRMS a position; a silent
    // mini-session proves nothing (the defect may simply not have been
    // excited), so the position stays an unresolved candidate — refinement
    // never exonerates on ATPG evidence (degrade-never-lie).
    if (atpg_ != nullptr && !refined.complete) {
      std::vector<std::size_t> pending = pendingMask.toIndices();
      std::stable_sort(pending.begin(), pending.end(), [&](std::size_t a, std::size_t b) {
        if (adiPrior_[a] != adiPrior_[b]) return adiPrior_[a] > adiPrior_[b];
        return a < b;
      });
      const Netlist& netlist = sim_->netlist();
      const std::vector<GateId>& dffs = netlist.dffs();
      std::size_t atpgSessions = 0;
      for (const std::size_t pos : pending) {
        if (atpgSessions >= policy_.atpgSessionBudget) break;
        std::vector<TestCube> cubes;
        for (std::size_t chain = 0; chain < topology.numChains(); ++chain) {
          if (pos >= topology.chainLength(chain)) continue;
          const GateId dff = dffs.at(topology.chain(chain)[pos]);
          for (const bool stuckAt : {false, true}) {
            const AtpgResult result =
                atpg_->generate(FaultSite{dff, 0, stuckAt}, kAtpgBacktrackLimit);
            if (result.outcome == AtpgOutcome::Detected) cubes.push_back(result.cube);
          }
        }
        if (cubes.empty()) continue;  // untestable capture path: stays unresolved
        obs::count(obs::Counter::AtpgPatternsGenerated, cubes.size());
        d.atpgPatterns += cubes.size();
        ++atpgSessions;
        ++d.extraSessions;
        const PatternSet distinguishing =
            patternsFromCubes(netlist, cubes, 0xF1ULL ^ scenario.seed);
        d.cost += distinguishingSessionCost(distinguishing.numPatterns(), chainLength);
        // Local simulator: the shared instance is not thread-safe, and the
        // distinguishing patterns need their own good machine anyway. The
        // levelization is read-only, so it is shared.
        const FaultSimulator local(netlist, distinguishing,
                                   sim_->simulator().sharedLevelization());
        std::vector<FaultResponse> partResponses;
        partResponses.reserve(scenario.components.size());
        for (const DefectComponent& comp : scenario.components) {
          partResponses.push_back(simulateComponent(local, comp));
        }
        std::vector<const FaultResponse*> parts;
        parts.reserve(partResponses.size());
        for (const FaultResponse& r : partResponses) parts.push_back(&r);
        const FaultResponse mini = composeUnionResponse(parts);
        if (mini.failingCells.size() == topology.numCells() &&
            topology.collapseCells(mini.failingCells).test(pos)) {
          confirmed.set(pos);
          pendingMask.reset(pos);
        }
      }
    }

    unresolvedLeft = pendingMask.count();
    // Cluster accounting over everything confirmed failing (refinement +
    // ATPG confirmations).
    clusters = countClusters(confirmed);
    if (unresolvedLeft > 0 || clusters > kMaxUnionFaults) degraded = true;
  }

  // Degrade: confidence decays with every cluster over budget and every
  // position left unresolved.
  if (clusters > kMaxUnionFaults) d.confidence *= 0.5;
  if (unresolvedLeft > 0) d.confidence *= std::pow(0.97, static_cast<double>(unresolvedLeft));
  d.confidence = std::clamp(d.confidence, kConfidenceFloor, 1.0);

  d.candidates.cells = topology.expandPositions(d.candidates.positions);
  d.candidateCount = d.candidates.cellCount();
  d.resolved = !degraded;
  d.misdiagnosed = !response.failingCells.isSubsetOf(d.candidates.cells);
  if (degraded && !recoveryCounted) obs::count(obs::Counter::DegradedSupersets);
}

FaultResponse DefectZooPipeline::effectiveResponse(const DefectScenario& scenario,
                                                   std::size_t attempt,
                                                   std::size_t partition) const {
  const std::size_t numPatterns = sim_->patterns().numPatterns();
  std::vector<FaultResponse> masked;
  masked.reserve(scenario.components.size());
  for (std::size_t i = 0; i < scenario.components.size(); ++i) {
    const DefectComponent& comp = scenario.components[i];
    if (!comp.intermittent()) continue;
    const BitVector activation = intermittentActivationMask(
        scenario.seed, scenario.index, i, attempt, partition, comp.activation, numPatterns);
    masked.push_back(maskResponse(comp.response, activation));
  }
  std::vector<const FaultResponse*> parts;
  parts.reserve(scenario.components.size());
  for (const DefectComponent& comp : scenario.components) {
    if (!comp.intermittent()) parts.push_back(&comp.response);
  }
  for (const FaultResponse& m : masked) parts.push_back(&m);
  return composeUnionResponse(parts);
}

DrReport DefectZooPipeline::evaluate(const std::vector<DefectScenario>& scenarios,
                                     const RunControl& control) const {
  // diagnose() is thread-safe const — the shared FaultSimulator is only read,
  // never simulated on.
  return base_.evaluateEach(
      scenarios.size(),
      [&](std::size_t i, SessionBatchScratch& scratch, std::uint64_t*) {
        return std::optional<FaultDiagnosis>(diagnose(scenarios[i], &scratch));
      },
      control);
}

}  // namespace scandiag

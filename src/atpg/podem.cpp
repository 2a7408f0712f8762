#include "atpg/podem.hpp"

#include <algorithm>
#include <memory>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace scandiag {

namespace {

// 3-valued logic: 0, 1, X.
using V3 = std::uint8_t;
constexpr V3 V0 = 0;
constexpr V3 V1 = 1;
constexpr V3 VX = 2;

V3 v3Not(V3 a) { return a == VX ? VX : (a == V0 ? V1 : V0); }

V3 evalGate3(GateType type, const std::vector<GateId>& fanins,
             const std::vector<V3>& values, int faultPin, V3 forced) {
  auto in = [&](std::size_t k) -> V3 {
    return static_cast<int>(k) == faultPin ? forced : values[fanins[k]];
  };
  switch (type) {
    case GateType::Buf:
      return in(0);
    case GateType::Not:
      return v3Not(in(0));
    case GateType::And:
    case GateType::Nand: {
      bool anyX = false;
      for (std::size_t k = 0; k < fanins.size(); ++k) {
        const V3 v = in(k);
        if (v == V0) return type == GateType::And ? V0 : V1;
        anyX |= (v == VX);
      }
      if (anyX) return VX;
      return type == GateType::And ? V1 : V0;
    }
    case GateType::Or:
    case GateType::Nor: {
      bool anyX = false;
      for (std::size_t k = 0; k < fanins.size(); ++k) {
        const V3 v = in(k);
        if (v == V1) return type == GateType::Or ? V1 : V0;
        anyX |= (v == VX);
      }
      if (anyX) return VX;
      return type == GateType::Or ? V0 : V1;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      std::uint8_t parity = type == GateType::Xnor ? 1 : 0;
      for (std::size_t k = 0; k < fanins.size(); ++k) {
        const V3 v = in(k);
        if (v == VX) return VX;
        parity ^= v;
      }
      return parity ? V1 : V0;
    }
    case GateType::Const0:
      return V0;
    case GateType::Const1:
      return V1;
    case GateType::Input:
    case GateType::Dff:
      break;
  }
  throw std::logic_error("evalGate3 on a source gate");
}

/// Non-controlling input value that lets a D pass through the gate.
V3 nonControlling(GateType type) {
  switch (type) {
    case GateType::And:
    case GateType::Nand:
      return V1;
    case GateType::Or:
    case GateType::Nor:
      return V0;
    default:
      return V0;  // XOR family propagates under any value
  }
}

bool invertingType(GateType type) {
  return type == GateType::Nand || type == GateType::Nor || type == GateType::Not ||
         type == GateType::Xnor;
}

struct Decision {
  GateId source;
  bool value;
  bool flipped;
};

}  // namespace

void TestCube::applyTo(PatternSet& patterns, std::size_t t, const Netlist& netlist,
                       std::uint64_t fillSeed) const {
  Xoroshiro128 rng(fillSeed ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
  for (GateId id = 0; id < netlist.gateCount(); ++id) {
    if (!patterns.isSource(id)) continue;
    const bool bit = (id < care.size() && care.test(id)) ? value.test(id) : rng.nextBool();
    patterns.stream(id).set(t, bit);
  }
}

PodemAtpg::PodemAtpg(const Netlist& netlist)
    : PodemAtpg(netlist, std::make_shared<const Levelization>(levelize(netlist))) {}

PodemAtpg::PodemAtpg(const Netlist& netlist, std::shared_ptr<const Levelization> lev)
    : netlist_(&netlist), lev_(std::move(lev)) {
  const std::size_t n = netlist.gateCount();
  SCANDIAG_REQUIRE(lev_ != nullptr && lev_->level.size() == n,
                   "levelization does not match the netlist");
  const std::vector<std::vector<GateId>>& fanouts = netlist.fanouts();
  fanoutBegin_.assign(n + 1, 0);
  for (GateId id = 0; id < n; ++id) {
    std::uint32_t users = 0;
    for (GateId user : fanouts[id]) users += isSourceType(netlist.gate(user).type) ? 0 : 1;
    fanoutBegin_[id + 1] = fanoutBegin_[id] + users;
  }
  fanoutList_.reserve(fanoutBegin_[n]);
  for (GateId id = 0; id < n; ++id) {
    for (GateId user : fanouts[id]) {
      // A DFF's D edge is sequential: the DFF's value is a decision, never
      // an implication.
      if (!isSourceType(netlist.gate(user).type)) fanoutList_.push_back(user);
    }
  }

  orderPos_.assign(n, 0);
  for (std::size_t i = 0; i < lev_->order.size(); ++i)
    orderPos_[lev_->order[i]] = static_cast<std::uint32_t>(i);
  obsCount_.assign(n, 0);
  for (GateId po : netlist.outputs()) ++obsCount_[po];
  for (GateId dff : netlist.dffs()) ++obsCount_[netlist.gate(dff).fanins[0]];

  unassigned_.assign(n, VX);
  for (GateId id = 0; id < n; ++id) {
    if (netlist.gate(id).type == GateType::Const0) unassigned_[id] = V0;
    if (netlist.gate(id).type == GateType::Const1) unassigned_[id] = V1;
  }
  for (GateId id : lev_->order) {
    const Gate& g = netlist.gate(id);
    unassigned_[id] = evalGate3(g.type, g.fanins, unassigned_, FaultSite::kOutputPin, VX);
  }
}

AtpgResult PodemAtpg::generate(const FaultSite& fault, std::size_t backtrackLimit) const {
  const Netlist& nl = *netlist_;
  const Levelization& lev = *lev_;
  SCANDIAG_REQUIRE(fault.gate < nl.gateCount(), "fault site out of range");
  obs::PhaseScope phase(obs::Phase::Atpg);
  AtpgResult result;

  // The "fault line" whose good value must be the complement of the stuck
  // value: the site's output, or the driver seen by the faulted pin.
  const GateId faultLine =
      fault.isOutputFault() ? fault.gate : nl.gate(fault.gate).fanins[fault.pin];
  const V3 stuck = fault.stuckAt ? V1 : V0;
  const V3 activate = v3Not(stuck);
  const bool dffPinFault =
      !fault.isOutputFault() && nl.gate(fault.gate).type == GateType::Dff;
  // A DFF D-pin fault is observed at its own cell once activated, so it
  // needs neither the D-frontier nor the observation count.
  const bool trackFrontier = !dffPinFault;

  // The faulty plane can differ from the good plane only in the fault site's
  // combinational fanout cone, site included (empty for a DFF D-pin fault,
  // whose error never re-enters the logic). Outside it the faulty value is the
  // good value, and no gate there can join the D-frontier.
  std::vector<std::uint8_t> inCone(nl.gateCount(), 0);
  if (!dffPinFault) {
    std::vector<GateId> stack{fault.gate};
    inCone[fault.gate] = 1;
    while (!stack.empty()) {
      const GateId id = stack.back();
      stack.pop_back();
      for (std::uint32_t k = fanoutBegin_[id]; k < fanoutBegin_[id + 1]; ++k) {
        const GateId user = fanoutList_[k];
        if (inCone[user]) continue;
        inCone[user] = 1;
        stack.push_back(user);
      }
    }
  }
  const bool sourceSite = isSourceType(nl.gate(fault.gate).type);

  // Both planes start from the unassigned, fault-free values; the fault is
  // injected below as the first event.
  std::vector<V3> good = unassigned_;
  std::vector<V3> faulty = unassigned_;
  std::vector<Decision> decisions;

  std::vector<std::vector<GateId>> buckets(lev.maxLevel + 1);  // pending gates per level
  std::vector<std::uint8_t> queued(nl.gateCount(), 0);
  std::size_t lowestQueued = buckets.size();
  std::vector<GateId> changed;  // gates whose values changed since the last frontier refresh
  BitVector frontier(lev.order.size());  // D-frontier, by position in lev.order
  std::size_t observedDs = 0;  // observation points whose line carries a D/D̄

  auto isD = [&](GateId line) {
    return good[line] != VX && faulty[line] != VX && good[line] != faulty[line];
  };

  auto write = [&](GateId id, V3 goodValue, V3 faultyValue) {
    if (good[id] == goodValue && faulty[id] == faultyValue) return;
    const bool wasD = isD(id);
    good[id] = goodValue;
    faulty[id] = faultyValue;
    if (obsCount_[id] != 0 && wasD != isD(id)) {
      if (wasD) observedDs -= obsCount_[id];
      else observedDs += obsCount_[id];
    }
    if (trackFrontier) changed.push_back(id);
    for (std::uint32_t k = fanoutBegin_[id]; k < fanoutBegin_[id + 1]; ++k) {
      const GateId user = fanoutList_[k];
      if (queued[user]) continue;
      queued[user] = 1;
      buckets[lev.level[user]].push_back(user);
      lowestQueued = std::min(lowestQueued, lev.level[user]);
    }
  };

  auto assignSource = [&](GateId source, V3 v) {
    const bool forced = fault.isOutputFault() && source == fault.gate;
    write(source, v, forced ? stuck : v);
  };

  // Frontier membership: output not yet binary in both planes, a D on some
  // input, and an X input left to set.
  auto onFrontier = [&](GateId id) {
    if (good[id] != VX && faulty[id] != VX) return false;
    // For a pin fault, the D is injected *inside* the owning gate's
    // evaluation, so the owner belongs to the frontier as soon as the
    // fault is activated even though no fanin carries a plane-level D.
    bool hasD = !fault.isOutputFault() && id == fault.gate && good[faultLine] == activate;
    bool hasX = false;
    for (GateId f : nl.gate(id).fanins) {
      hasD = hasD || isD(f);
      hasX = hasX || good[f] == VX;
    }
    return hasD && hasX;
  };
  auto refreshMembership = [&](GateId id) {
    if (!inCone[id] || (id == fault.gate && sourceSite)) return;
    frontier.set(orderPos_[id], onFrontier(id));
  };

  // Settles every queued gate in level order (a gate's fanins sit at lower
  // levels), then re-examines frontier membership where values moved.
  auto imply = [&] {
    for (std::size_t l = lowestQueued; l < buckets.size(); ++l) {
      for (const GateId id : buckets[l]) {  // fanouts land at higher levels only
        queued[id] = 0;
        const Gate& g = nl.gate(id);
        const V3 goodValue = evalGate3(g.type, g.fanins, good, FaultSite::kOutputPin, VX);
        V3 faultyValue = goodValue;
        if (!inCone[id]) {
          // faulty == good outside the cone
        } else if (id == fault.gate && fault.isOutputFault()) {
          faultyValue = stuck;
        } else if (id == fault.gate) {
          faultyValue = evalGate3(g.type, g.fanins, faulty, fault.pin, stuck);
        } else {
          faultyValue = evalGate3(g.type, g.fanins, faulty, FaultSite::kOutputPin, VX);
        }
        write(id, goodValue, faultyValue);
      }
      buckets[l].clear();
    }
    lowestQueued = buckets.size();
    for (const GateId id : changed) {
      refreshMembership(id);
      for (std::uint32_t k = fanoutBegin_[id]; k < fanoutBegin_[id + 1]; ++k)
        refreshMembership(fanoutList_[k]);
    }
    changed.clear();
  };

  auto observed = [&] {
    if (dffPinFault) return good[faultLine] == activate;
    return observedDs > 0;
  };

  auto dFrontierPick = [&]() -> std::optional<std::pair<GateId, V3>> {
    // The lowest position is the gate a scan of lev.order would find first.
    const std::size_t pos = frontier.findFirst();
    if (pos == BitVector::npos) return std::nullopt;
    const Gate& g = nl.gate(lev.order[pos]);
    for (GateId f : g.fanins) {
      if (good[f] == VX) return std::make_pair(f, nonControlling(g.type));
    }
    SCANDIAG_ASSERT(false, "D-frontier gate without an X input");
    return std::nullopt;
  };

  // Backtrace an objective to a source decision through X-valued gates.
  auto backtrace = [&](GateId line, V3 target) -> std::optional<std::pair<GateId, bool>> {
    while (!isSourceType(nl.gate(line).type)) {
      const Gate& g = nl.gate(line);
      if (invertingType(g.type)) target = v3Not(target);
      GateId next = kInvalidGate;
      for (GateId f : g.fanins) {
        if (good[f] == VX) {
          next = f;
          break;
        }
      }
      if (next == kInvalidGate) return std::nullopt;  // no X path: conflict
      line = next;
    }
    return std::make_pair(line, target == V1);
  };

  auto backtrack = [&]() -> bool {
    while (!decisions.empty()) {
      Decision& d = decisions.back();
      if (!d.flipped) {
        d.flipped = true;
        d.value = !d.value;
        ++result.stats.backtracks;
        assignSource(d.source, d.value ? V1 : V0);
        return true;
      }
      assignSource(d.source, VX);
      decisions.pop_back();
    }
    return false;
  };

  // Inject the fault: force the site's faulty output, or re-evaluate the
  // pin fault's owner with the pin forced.
  if (fault.isOutputFault()) {
    write(fault.gate, good[fault.gate], stuck);
  } else if (!dffPinFault) {
    queued[fault.gate] = 1;
    buckets[lev.level[fault.gate]].push_back(fault.gate);
    lowestQueued = lev.level[fault.gate];
    // Its membership may hinge on activation alone, with no value changed.
    changed.push_back(fault.gate);
  }

  while (true) {
    imply();
    if (good[faultLine] == activate && observed()) {
      result.outcome = AtpgOutcome::Detected;
      result.cube.care = BitVector(nl.gateCount());
      result.cube.value = BitVector(nl.gateCount());
      for (const Decision& d : decisions) {
        result.cube.care.set(d.source);
        if (d.value) result.cube.value.set(d.source);
      }
      return result;
    }

    // Choose the next objective.
    std::optional<std::pair<GateId, V3>> objective;
    bool conflict = false;
    if (good[faultLine] == stuck) {
      conflict = true;  // fault can no longer be activated
    } else if (good[faultLine] == VX) {
      objective = std::make_pair(faultLine, activate);
    } else if (!dffPinFault) {
      objective = dFrontierPick();
      conflict = !objective.has_value();  // activated but D-frontier dead
    } else {
      conflict = true;  // dff pin fault activated implies observed; unreachable
    }

    std::optional<std::pair<GateId, bool>> decision;
    if (!conflict) {
      decision = backtrace(objective->first, objective->second);
      conflict = !decision.has_value();
    }
    if (conflict) {
      if (result.stats.backtracks >= backtrackLimit) {
        result.outcome = AtpgOutcome::Aborted;
        return result;
      }
      if (!backtrack()) {
        result.outcome = AtpgOutcome::Untestable;
        return result;
      }
      continue;
    }
    decisions.push_back(Decision{decision->first, decision->second, false});
    assignSource(decision->first, decision->second ? V1 : V0);
    ++result.stats.decisions;
  }
}

std::vector<TestCube> PodemAtpg::generateCompactSet(const std::vector<FaultSite>& faults,
                                                    std::size_t backtrackLimit) const {
  std::vector<TestCube> cubes;
  // Fault dropping: a fault already detected by the accumulated patterns gets
  // no new cube. The simulator is rebuilt in blocks to amortize its setup.
  std::unique_ptr<PatternSet> patterns;
  std::unique_ptr<FaultSimulator> sim;
  std::size_t patternsInSim = 0;
  auto rebuild = [&] {
    if (cubes.empty()) return;
    patterns = std::make_unique<PatternSet>(*netlist_, cubes.size());
    for (std::size_t t = 0; t < cubes.size(); ++t)
      cubes[t].applyTo(*patterns, t, *netlist_, 0xF111);
    sim = std::make_unique<FaultSimulator>(*netlist_, *patterns, lev_);
    patternsInSim = cubes.size();
  };
  for (const FaultSite& fault : faults) {
    if (sim && sim->simulate(fault).detected()) continue;  // dropped
    const AtpgResult r = generate(fault, backtrackLimit);
    if (r.outcome != AtpgOutcome::Detected) continue;
    cubes.push_back(r.cube);
    if (cubes.size() - patternsInSim >= 32 || !sim) rebuild();
  }
  return cubes;
}

PatternSet patternsFromCubes(const Netlist& netlist, const std::vector<TestCube>& cubes,
                             std::uint64_t fillSeed) {
  SCANDIAG_REQUIRE(!cubes.empty(), "no cubes to assemble");
  PatternSet patterns(netlist, cubes.size());
  for (std::size_t t = 0; t < cubes.size(); ++t)
    cubes[t].applyTo(patterns, t, netlist, fillSeed);
  return patterns;
}

}  // namespace scandiag

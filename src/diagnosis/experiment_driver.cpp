#include "diagnosis/experiment_driver.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/journal.hpp"
#include "common/thread_pool.hpp"
#include "diagnosis/adaptive_planner.hpp"
#include "diagnosis/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_list.hpp"

namespace scandiag {

std::vector<Partition> buildPartitions(const DiagnosisConfig& config, std::size_t chainLength) {
  auto scheme =
      makeScheme(config.scheme, config.schemeConfig, chainLength, config.groupsPerPartition);
  return takePartitions(*scheme, config.numPartitions);
}

DiagnosisPipeline::DiagnosisPipeline(const ScanTopology& topology, const DiagnosisConfig& config,
                                     const NoiseConfig& noise, const RetryPolicy& retry)
    : topology_(&topology),
      config_(config),
      prepared_(config.scheme == SchemeKind::Adaptive
                    ? PreparedPartitionSet{}
                    : PreparedPartitionSet(buildPartitions(config, topology.maxChainLength()))),
      // The pipeline's one engine; its adaptive planner scores steps on it too.
      engine_(topology, SessionConfig{.mode = config.mode,
                                      .numPatterns = config.numPatterns,
                                      .misrDegree = config.misrDegree,
                                      .computeSignatures = config.pruning}),
      analyzer_(topology),
      pruner_(topology),
      corruptor_(noise),
      recovery_(topology, retry) {
  if (config.scheme == SchemeKind::Adaptive) {
    adaptive_ = std::make_unique<AdaptivePlanner>(topology, config);
  }
}

DiagnosisPipeline::~DiagnosisPipeline() = default;

FaultDiagnosis DiagnosisPipeline::diagnose(const FaultInput& input, SessionBatchScratch* scratch,
                                           std::uint64_t* verdictDigest) const {
  obs::count(input.multiDefect ? obs::Counter::DefectScenariosRun
                               : obs::Counter::FaultsDiagnosed);
  if (input.observe) return sampledLadder(input);
  const FaultResponse& response = input.response;
  const std::vector<Partition>& partitions = prepared_.partitions();
  const bool noisy = corruptor_.config().enabled();
  const BitVector failingPositions =
      noisy ? topology_->collapseCells(response.failingCells) : BitVector{};
  FaultDiagnosis out;
  out.actualCount = response.failingCellCount();
  // The noisy tester: run `attempt` of schedule partition p draws its own
  // corruption stream. An adaptive schedule keys on the step ordinal, so a
  // retry of step p draws the stream a fixed schedule's partition p would.
  const auto perturb = [&](PartitionVerdictRow& row, const Partition& partition, std::size_t p,
                           std::size_t attempt) {
    if (!noisy) return;
    const std::size_t events =
        corruptor_.corruptRow(row, partition, p, failingPositions, input.key, attempt).count();
    if (events > 0) obs::count(obs::Counter::NoiseEventsInjected, events);
    if (attempt == 0) out.injectedEvents += events;
  };

  // Schedule: a fixed schedule runs attempt 0 in one batched pass; the
  // adaptive planner picks each partition on the (possibly corrupted) rows
  // it observes, as a scheduler on a real tester would (scoring included).
  std::optional<obs::PhaseScope> phase;
  if (scratch == nullptr) phase.emplace(obs::Phase::SignatureCompare);
  std::optional<AdaptiveOutcome> planned;
  GroupVerdicts verdicts;
  if (adaptive_) {
    const auto observe = [&](std::size_t step, std::size_t poolIndex, PartitionVerdictRow& row) {
      perturb(row, adaptive_->pool().partition(poolIndex), step, 0);
    };
    planned = adaptive_->run(engine_, response,
                             noisy ? AdaptivePlanner::RowObserver(observe) : nullptr);
    verdicts = std::move(planned->verdicts);
    out.sessionsSpent = planned->sessionsUsed;
    out.cost = adaptiveRunCost(planned->sessionsUsed, config_.numPatterns,
                               topology_->maxChainLength());
  } else {
    verdicts = engine_.run(prepared_, response, scratch);
    out.injectedEvents =
        corruptor_.corrupt(verdicts, partitions, failingPositions, input.key, 0).count();
    if (out.injectedEvents > 0) obs::count(obs::Counter::NoiseEventsInjected, out.injectedEvents);
    out.cost = partitionRunCost(config_.numPartitions, config_.groupsPerPartition,
                                config_.numPatterns, topology_->maxChainLength());
  }
  if (verdictDigest) {
    // An adaptive digest covers the realized schedule too: a resumed run
    // replays the same greedy trajectory or the mismatch flags it.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t s = 0; s < verdicts.failing.size(); ++s) {
      if (planned) h = fnv1a64(static_cast<std::uint64_t>(planned->chosen[s]), h);
      const BitVector& row = verdicts.failing[s];
      for (std::size_t w = 0; w < row.wordCount(); ++w) h = fnv1a64(row.word(w), h);
    }
    *verdictDigest = h;
  }

  if (!input.multiDefect && !noisy) {
    // Analyze: inclusion-exclusion, then optional superposition pruning.
    if (planned) {
      out.candidates = std::move(planned->candidates);
    } else {
      if (phase) phase.emplace(obs::Phase::CandidateIntersection);
      out.candidates = analyzer_.analyze(partitions, verdicts);
      if (config_.pruning) out.candidates = pruner_.prune(prepared_, verdicts, out.candidates);
    }
  } else {
    // Recover: a retry re-runs the partition's sessions on the same tester —
    // a fresh capture and, on a noisy tester, a fresh stream.
    phase.reset();
    const std::vector<Partition> realized =
        planned ? adaptive_->schedule(*planned) : std::vector<Partition>{};
    const std::vector<Partition>& schedule = planned ? realized : partitions;
    const PartitionRerun rerun = [&](std::size_t p, std::size_t attempt) {
      PartitionVerdictRow row =
          planned ? engine_.runPartition(adaptive_->pool(), planned->chosen[p], response,
                                         scratch)
                  : engine_.runPartition(prepared_, p, response, scratch);
      perturb(row, schedule[p], p, attempt);
      return row;
    };
    RecoveredDiagnosis recovered = recovery_.recover(schedule, verdicts, rerun);
    out.candidates = std::move(recovered.candidates);
    out.confidence = recovered.confidence;
    out.resolved = recovered.resolved;
    out.inconsistencies = recovered.inconsistencies.size();
    out.extraSessions += recovered.retrySessions;
    out.cost += repeatedSessionsCost(recovered.retrySessions, config_.numPatterns,
                                     topology_->maxChainLength());
    if (recovered.unionDiagnosis) {
      out.unionClusters = recovered.unionClusters;
      if (recovered.unionClusters > 1) out.unionSplits += recovered.unionClusters - 1;
    }
  }
  out.candidateCount = out.candidates.cellCount();
  // Sizes differ only for hand-built responses, which carry no truth to check.
  out.misdiagnosed = response.failingCells.size() == out.candidates.cells.size() &&
                     !response.failingCells.isSubsetOf(out.candidates.cells);
  return out;
}

FaultDiagnosis DiagnosisPipeline::sampledLadder(const FaultInput& input) const {
  const std::vector<Partition>& partitions = prepared_.partitions();
  const std::size_t numPartitions = partitions.size();
  const std::size_t samples = std::max<std::size_t>(1, input.samples);
  FaultDiagnosis out;

  // Schedule: `samples` full schedules; each (attempt, partition) observes
  // its own replayable response, exactly like a tester re-running sessions
  // against a flaky defect.
  GroupVerdicts all;
  std::vector<Partition> allPartitions;
  BitVector manifested(input.response.failingCells.size());
  SessionBatchScratch scratch;
  for (std::size_t attempt = 0; attempt < samples; ++attempt) {
    for (std::size_t p = 0; p < numPartitions; ++p) {
      const FaultResponse observed = input.observe(attempt, p);
      manifested |= observed.failingCells;
      all.failing.push_back(engine_.runPartition(prepared_, p, observed, &scratch).failing);
      allPartitions.push_back(partitions[p]);
    }
  }
  GroupVerdicts firstSample;
  firstSample.failing.assign(all.failing.begin(), all.failing.begin() + numPartitions);
  out.actualCount = manifested.count();
  out.cost = partitionRunCost(numPartitions * samples, config_.groupsPerPartition,
                              config_.numPatterns, topology_->maxChainLength());
  out.extraSessions = (samples - 1) * numPartitions * config_.groupsPerPartition;
  out.inconsistencies = analyzer_.analyzeChecked(partitions, firstSample).inconsistencies.size();

  // Degrade: intermittency starves the intersection (a pass no longer
  // exonerates), so even the union mode's per-cluster intersections are
  // unsound — take the superset floor across every observed session, a
  // guaranteed superset of everything that manifested by construction.
  const UnionAnalysis unions =
      analyzer_.analyzeUnion(allPartitions, all);
  if (unions.clusters > 1) {
    out.unionSplits = unions.clusters - 1;
    obs::count(obs::Counter::UnionSplits, out.unionSplits);
  }
  out.candidates = unions.supersetFloor;
  out.candidateCount = out.candidates.cellCount();
  out.resolved = false;
  obs::count(obs::Counter::DegradedSupersets);

  // Calibrated confidence: estimate the activation rate from group-verdict
  // stability across samples; the miss probability (an intermittent component
  // silent in every sample) bounds how much of the defect we can have seen.
  std::size_t everFailing = 0;
  double fractionSum = 0.0;
  for (std::size_t p = 0; p < numPartitions; ++p) {
    for (std::size_t g = 0; g < all.failing[p].size(); ++g) {
      std::size_t fails = 0;
      for (std::size_t attempt = 0; attempt < samples; ++attempt) {
        if (all.failing[attempt * numPartitions + p].test(g)) ++fails;
      }
      if (fails > 0) {
        ++everFailing;
        fractionSum += static_cast<double>(fails) / static_cast<double>(samples);
      }
    }
  }
  const double activationEstimate =
      everFailing > 0 ? fractionSum / static_cast<double>(everFailing) : 0.0;
  const double missProbability = std::pow(1.0 - activationEstimate, static_cast<double>(samples));
  out.confidence = std::clamp((1.0 - missProbability) * 0.95, kConfidenceFloor, 0.95);
  out.misdiagnosed = manifested.any() && manifested.size() == out.candidates.cells.size() &&
                     !manifested.isSubsetOf(out.candidates.cells);
  return out;
}

DrReport DiagnosisPipeline::evaluate(const std::vector<FaultResponse>& responses,
                                     const RunControl& control, const SweepJournal& journal,
                                     bool unions) const {
  return evaluateEach(
      responses.size(),
      [&](std::size_t i, SessionBatchScratch& scratch,
          std::uint64_t* digest) -> std::optional<FaultDiagnosis> {
        if (!responses[i].detected()) return std::nullopt;
        return diagnose(FaultInput{responses[i], i, unions}, &scratch, digest);
      },
      control, journal);
}

DrReport DiagnosisPipeline::evaluateEach(std::size_t count, const FaultStep& step,
                                         const RunControl& control,
                                         const SweepJournal& journal) const {
  // Slot i depends only on fault i (and its index-keyed streams): the
  // parallel loop writes disjoint slots, and the fold runs in index order.
  const std::size_t hi = std::min(journal.rangeHi, count);
  const std::size_t lo = std::min(journal.rangeLo, hi);
  FaultRecordSink* sink = journal.sink;
  // Candidate sets are dropped as each fault lands: the fold needs counts.
  std::vector<std::optional<FaultDiagnosis>> slots(hi - lo);
  // Range (not element) dispatch: one contiguous fault chunk per worker lane,
  // with the batch scorer's scratch living on the worker's stack for the
  // whole chunk — no per-fault allocation, no cross-worker cache-line
  // traffic on scratch state.
  globalPool().parallelForRange(hi - lo, [&](std::size_t begin, std::size_t end) {
    SessionBatchScratch scratch;
    for (std::size_t s = begin; s < end; ++s) {
      const std::uint32_t index = static_cast<std::uint32_t>(lo + s);
      std::optional<FaultDiagnosis>& slot = slots[s];
      if (const FaultRecord* prior = sink ? sink->find(journal.sweepId, index) : nullptr) {
        for (const auto& [counter, delta] : prior->counterDeltas) {
          obs::count(static_cast<obs::Counter>(counter), delta);
        }
        obs::count(obs::Counter::JournalRecordsReplayed);
        slot.emplace();
        slot->candidateCount = static_cast<std::size_t>(prior->candidateCount);
        slot->actualCount = static_cast<std::size_t>(prior->actualCount);
        continue;
      }
      // Cancellation lands here, never inside a diagnosis: each published
      // record is a fault that ran to completion.
      control.throwIfStopped();
      if (!sink) {
        slot = step(index, scratch, nullptr);
      } else {
        FaultRecord record{journal.sweepId, index};
        {
          obs::DeltaCapture capture;
          slot = step(index, scratch, &record.verdictDigest);
          for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
            const std::uint64_t delta = capture.deltas()[c];
            if (delta != 0) record.counterDeltas.emplace_back(static_cast<std::uint16_t>(c), delta);
          }
        }
        if (!slot) continue;
        record.candidateCount = slot->candidateCount;
        record.actualCount = slot->actualCount;
        sink->record(record);
      }
      if (slot) slot->candidates = CandidateSet{};
    }
  });

  DrAccumulator acc;
  DrReport report;
  double confidenceSum = 0.0;
  for (const std::optional<FaultDiagnosis>& d : slots) {
    if (!d) continue;
    acc.add(d->candidateCount, d->actualCount);
    confidenceSum += d->confidence;
    report.misdiagnosed += d->misdiagnosed ? 1 : 0;
    report.emptyCandidates += d->candidateCount == 0 ? 1 : 0;
    report.unresolved += d->resolved ? 0 : 1;
    report.inconsistencies += d->inconsistencies;
    report.extraSessions += d->extraSessions;
    report.unionSplits += d->unionSplits;
    report.atpgPatterns += d->atpgPatterns;
  }
  report.faults = acc.faults();
  report.sumCandidates = acc.sumCandidates();
  report.sumActual = acc.sumActual();
  if (report.faults > 0) {
    report.dr = acc.dr();
    report.meanConfidence = confidenceSum / static_cast<double>(report.faults);
  }
  return report;
}

std::vector<double> DiagnosisPipeline::evaluateSweep(
    const std::vector<FaultResponse>& responses, const RunControl& control) const {
  const std::size_t length = topology_->maxChainLength();
  const std::vector<Partition>& partitions = prepared_.partitions();
  const std::size_t prefixes = adaptive_ ? config_.numPartitions : partitions.size();
  // Per fault, the candidate count after each prefix; reduced into the
  // per-prefix accumulators in fault-index order below (same ordered-
  // reduction contract, and per-worker-chunk scratch, as evaluateEach()).
  std::vector<std::vector<std::size_t>> prefixCandidates(responses.size());
  globalPool().parallelForRange(responses.size(), [&](std::size_t begin, std::size_t end) {
    SessionBatchScratch scratch;
    for (std::size_t i = begin; i < end; ++i) {
      const FaultResponse& r = responses[i];
      if (!r.detected()) continue;
      control.throwIfStopped();
      obs::count(obs::Counter::FaultsDiagnosed);
      std::vector<std::size_t>& counts = prefixCandidates[i];
      counts.reserve(prefixes);
      if (adaptive_) {
        // One greedy run serves every prefix (see the header).
        const AdaptiveOutcome outcome = adaptive_->run(engine_, r);
        std::size_t step = 0;
        std::size_t current = topology_->numCells();
        for (std::size_t p = 0; p < prefixes; ++p) {
          const std::size_t budget = (p + 1) * config_.groupsPerPartition;
          while (step < outcome.steps.size() &&
                 outcome.steps[step].cumulativeSessions <= budget) {
            current = outcome.steps[step++].survivorCells;
          }
          counts.push_back(current);
        }
        continue;
      }
      const GroupVerdicts verdicts = engine_.run(prepared_, r, &scratch);
      BitVector positions(length, true);
      for (std::size_t p = 0; p < prefixes; ++p) {
        positions &= partitions[p].unionOf(verdicts.failing[p]);
        counts.push_back(topology_->expandPositions(positions).count());
      }
    }
  });
  std::vector<DrAccumulator> acc(prefixes);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (!responses[i].detected()) continue;
    const std::size_t actual = responses[i].failingCellCount();
    for (std::size_t p = 0; p < prefixes; ++p) acc[p].add(prefixCandidates[i][p], actual);
  }
  std::vector<double> dr;
  dr.reserve(acc.size());
  for (const DrAccumulator& a : acc) dr.push_back(a.dr());
  return dr;
}

std::vector<FaultResponse> sampleDetectedFaults(const FaultSimulator& sim,
                                                std::size_t numFaults, std::uint64_t seed) {
  const FaultList universe = FaultList::enumerateCollapsed(sim.netlist());
  // Oversample: random patterns typically detect 60-95% of stuck-at faults,
  // so 4x candidates nearly always yields the full target of detected faults.
  const std::vector<FaultSite> candidates =
      universe.sample(std::min(universe.size(), numFaults * 4), seed);
  return sim.collectDetected(candidates, numFaults);
}

CircuitWorkload prepareWorkload(const Netlist& netlist, const WorkloadConfig& config,
                                std::size_t numChains) {
  SCANDIAG_REQUIRE(!netlist.dffs().empty(), "workload circuit has no scan cells");
  const PatternSet patterns = generatePatterns(netlist, config.numPatterns);
  CircuitWorkload out;
  out.topology =
      ScanTopology::blockChains(netlist.dffs().size(), std::max<std::size_t>(numChains, 1));
  out.responses =
      sampleDetectedFaults(FaultSimulator(netlist, patterns), config.numFaults, config.faultSeed);
  out.patternsApplied = config.numPatterns;
  return out;
}

}  // namespace scandiag

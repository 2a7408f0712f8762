// End-to-end diagnosis pipeline and experiment drivers.
//
// DiagnosisPipeline binds a scan topology to a fully-specified diagnosis
// configuration (scheme, partition/group counts, signature mode, pruning) and
// turns FaultResponses into candidate sets and DR reports. Partitions are
// built once per pipeline — the hardware applies the same partition sequence
// to every device — and reused for all faults, so evaluating another scheme
// or partition budget on the same fault-simulation data is cheap.
//
// Every mode runs one ladder, schedule -> analyze -> recover -> refine ->
// degrade, and differs only in its verdict source, a pure function of (fault
// key, attempt, partition) — so every mode is bit-identical at any thread
// count: the clean engine (the paper), a noisy tester (VerdictCorruptor's
// stream over the clean rows), or a defect union (FaultInput::multiDefect,
// whose intermittent components observe per-(attempt, partition) masks via
// FaultInput::observe). Recovery runs whenever the source can break the
// single-fault model: under noise and on every union. The refine stage is
// defect-specific and lives in DefectZooPipeline.
//
// prepareWorkload() packages the front half of every experiment in the paper:
// generate patterns, pick 500 detected stuck-at faults, fault-simulate them
// into responses (see DESIGN.md §3 for the per-table parameters).
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "bist/prpg.hpp"
#include "common/watchdog.hpp"
#include "diagnosis/candidate_analyzer.hpp"
#include "diagnosis/cost_model.hpp"
#include "diagnosis/metrics.hpp"
#include "diagnosis/prepared_partitions.hpp"
#include "diagnosis/recovery.hpp"
#include "diagnosis/session_engine.hpp"
#include "diagnosis/superposition_pruner.hpp"
#include "diagnosis/two_step_scheme.hpp"
#include "inject/verdict_corruptor.hpp"

namespace scandiag {

struct DiagnosisConfig {
  SchemeKind scheme = SchemeKind::TwoStep;
  std::size_t numPartitions = 8;
  std::size_t groupsPerPartition = 16;
  SchemeConfig schemeConfig{};
  SignatureMode mode = SignatureMode::Exact;
  bool pruning = false;
  std::size_t numPatterns = 128;
  unsigned misrDegree = 16;
};

/// One fault through the ladder. A clean single-fault run leaves the fields
/// after `cost` at their defaults.
struct FaultDiagnosis {
  CandidateSet candidates;
  std::size_t candidateCount = 0;
  /// True failing cells. For an intermittent defect: the cells that actually
  /// manifested in the observed sessions.
  std::size_t actualCount = 0;
  /// Sessions actually run for this fault. 0 on the fixed schemes (their
  /// count is the static numPartitions * groupsPerPartition); the adaptive
  /// scheme reports its data-dependent spend here (CostModel::adaptiveRunCost).
  std::size_t sessionsSpent = 0;
  /// Tester time: the schedule plus every extra session.
  DiagnosisCost cost;
  /// Sessions beyond the schedule: retries, refinement, ATPG, repeat samples.
  std::size_t extraSessions = 0;
  /// Ground truth: a true failing cell is missing from the candidates — the
  /// violation the degrade-never-lie contract forbids.
  bool misdiagnosed = false;
  /// False = superset-only answer (recovery, union budget, refinement or
  /// intermittency degraded it).
  bool resolved = true;
  double confidence = 1.0;
  /// Inconsistencies detected on the initial verdicts (pre-retry).
  std::size_t inconsistencies = 0;
  /// Verdict corruptions the noisy tester applied on attempt 0.
  std::size_t injectedEvents = 0;
  /// Clusters the checked union mode settled on (0 = the single-fault
  /// intersection answered).
  std::size_t unionClusters = 0;
  std::size_t unionSplits = 0;
  std::size_t atpgPatterns = 0;
};

/// One fault as the ladder sees it.
struct FaultInput {
  /// The observed response; for a defect union, the permanent overlay.
  const FaultResponse& response;
  /// Seeds the fault's noise streams; evaluate() uses the fault index.
  std::uint64_t key = 0;
  /// A k-fault union: recovered even on a clean source; counts as a scenario.
  bool multiDefect = false;
  /// For a defect whose manifestation varies between runs: the response a
  /// tester observes running `partition` on observation `attempt`. The ladder
  /// then observes `samples` full schedules and answers their superset floor.
  std::function<FaultResponse(std::size_t attempt, std::size_t partition)> observe = {};
  std::size_t samples = 1;
};

/// One fault of an evaluate loop (nullopt skips it), given the worker's
/// scratch and, when the loop journals, where to put the verdict digest.
using FaultStep = std::function<std::optional<FaultDiagnosis>(
    std::size_t index, SessionBatchScratch& scratch, std::uint64_t* verdictDigest)>;

class FaultRecordSink;

/// Where evaluate() replays and publishes faults (checkpoint.hpp), and which
/// fault range it runs. The default journals nothing and covers every fault.
struct SweepJournal {
  FaultRecordSink* sink = nullptr;
  std::uint64_t sweepId = 0;
  std::size_t rangeLo = 0;
  std::size_t rangeHi = std::numeric_limits<std::size_t>::max();
};

class AdaptivePlanner;

class DiagnosisPipeline {
 public:
  /// An enabled `noise` makes the tester noisy: verdicts pass through
  /// VerdictCorruptor and recovery runs on every fault (zero noise is the
  /// clean pipeline verbatim; pruning is skipped under noise, whose corrupted
  /// or majority-voted verdicts break the pruner's XOR-signature algebra).
  /// `retry` budgets the recovery stage.
  DiagnosisPipeline(const ScanTopology& topology, const DiagnosisConfig& config,
                    const NoiseConfig& noise = {}, const RetryPolicy& retry = {});
  ~DiagnosisPipeline();
  DiagnosisPipeline(DiagnosisPipeline&&) = default;
  DiagnosisPipeline& operator=(DiagnosisPipeline&&) = default;

  /// Empty for SchemeKind::Adaptive (the schedule is chosen online per fault;
  /// see adaptive()).
  const std::vector<Partition>& partitions() const { return prepared_.partitions(); }
  /// The pre-indexed schedule (group tables built once at construction);
  /// shared read-only across pool workers.
  const PreparedPartitionSet& prepared() const { return prepared_; }
  const DiagnosisConfig& config() const { return config_; }
  const ScanTopology& topology() const { return *topology_; }
  const SessionEngine& engine() const { return engine_; }
  /// Non-null iff config().scheme == SchemeKind::Adaptive: the online
  /// entropy-greedy scheduler the ladder routes through (see
  /// adaptive_planner.hpp).
  const AdaptivePlanner* adaptive() const { return adaptive_.get(); }

  /// One fault through the ladder. `key` seeds the fault's noise streams.
  FaultDiagnosis diagnose(const FaultResponse& response, std::uint64_t key = 0) const {
    return diagnose(FaultInput{response, key});
  }
  /// `scratch` is the calling worker's batch-scorer buffers. A batch loop
  /// passes it and the per-fault phase timers stay closed, because per-fault
  /// clock reads would dominate a microsecond-scale diagnosis (counters, the
  /// deterministic section, are identical either way); a one-off call leaves
  /// it null and is timed. `verdictDigest` (optional) receives an FNV-1a
  /// digest of the verdicts — the audit fingerprint a journal keeps with
  /// each completed fault.
  FaultDiagnosis diagnose(const FaultInput& input, SessionBatchScratch* scratch = nullptr,
                          std::uint64_t* verdictDigest = nullptr) const;

  /// DR over `responses` through the ladder (undetected ones are skipped);
  /// `unions` marks each a multi-defect union. See evaluateEach().
  DrReport evaluate(const std::vector<FaultResponse>& responses, const RunControl& control = {},
                    const SweepJournal& journal = {}, bool unions = false) const;

  /// The one per-fault loop, behind evaluate() and DefectZooPipeline.
  /// Bit-identical for every thread count. `control` is polled between
  /// faults; a trip unwinds as OperationCancelled (the default is inert).
  /// Faults the journal's sink holds are replayed (counters re-applied) and
  /// fresh ones published, so a resumed run matches an uninterrupted one.
  DrReport evaluateEach(std::size_t count, const FaultStep& step,
                        const RunControl& control = {}, const SweepJournal& journal = {}) const;

  /// DR after each partition-count prefix 1..numPartitions (pruning is not
  /// applied — matches the paper's Figure 5 protocol "without pruning").
  /// `control` is polled at fault granularity, as in evaluate().
  /// For the adaptive scheme, prefix p reads the greedy trajectory at session
  /// budget (p+1) * groupsPerPartition — the planner's anytime curve, not a
  /// re-run per budget (identical by construction for uniform group counts).
  std::vector<double> evaluateSweep(const std::vector<FaultResponse>& responses,
                                    const RunControl& control = {}) const;

 private:
  /// The ladder of an intermittent defect (FaultInput::observe).
  FaultDiagnosis sampledLadder(const FaultInput& input) const;

  const ScanTopology* topology_;
  DiagnosisConfig config_;
  PreparedPartitionSet prepared_;
  SessionEngine engine_;
  CandidateAnalyzer analyzer_;
  SuperpositionPruner pruner_;
  VerdictCorruptor corruptor_;
  DiagnosisRecovery recovery_;
  std::unique_ptr<AdaptivePlanner> adaptive_;  // non-null iff scheme == Adaptive
};

/// Builds the partition sequence a config implies (exposed for tests/benches).
/// Throws std::invalid_argument for SchemeKind::Adaptive, which has no fixed
/// sequence — its schedule is chosen online per fault.
std::vector<Partition> buildPartitions(const DiagnosisConfig& config, std::size_t chainLength);

// ---------------------------------------------------------------------------
// Workload preparation (pattern generation + fault selection + fault sim).

struct WorkloadConfig {
  std::size_t numPatterns = 128;
  std::size_t numFaults = 500;
  std::uint64_t faultSeed = 0xFA17;
};

struct CircuitWorkload {
  ScanTopology topology;
  /// Detected faults only; size <= numFaults.
  std::vector<FaultResponse> responses;
  std::size_t patternsApplied = 0;
};

/// The faults every experiment diagnoses: samples 4 x `numFaults` sites from
/// the collapsed fault universe of `sim`'s netlist with `seed`, and keeps the
/// first `numFaults` that `sim`'s patterns detect (fewer when the sample runs
/// out).
std::vector<FaultResponse> sampleDetectedFaults(const FaultSimulator& sim,
                                                std::size_t numFaults, std::uint64_t seed);

/// Full-scan `netlist` with `numChains` balanced block chains; samples from
/// the collapsed fault universe until `numFaults` detected faults are found
/// (or the universe is exhausted).
CircuitWorkload prepareWorkload(const Netlist& netlist, const WorkloadConfig& config,
                                std::size_t numChains = 1);

}  // namespace scandiag

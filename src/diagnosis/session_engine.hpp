// BIST session emulation: per-group pass/fail verdicts and error signatures.
//
// For a partition of b groups the tester runs b sessions; in session g only
// the cells of group g reach the MISR. Because the applied patterns are
// identical in every session, the captured data never changes — only the
// masking does — so instead of re-simulating the circuit per session we
// derive every verdict from the fault's per-cell error streams:
//
//  * Exact mode ("no aliasing"): a group fails iff some selected cell has at
//    least one error bit. This matches comparing full response streams and is
//    the paper's working assumption for the DR tables.
//  * MISR mode: a group's 16-bit (configurable) error signature is computed
//    through the GF(2)-linear MISR model; the group fails iff the signature
//    is nonzero. Aliasing (a nonzero error stream compacting to signature 0)
//    becomes possible, exactly as in silicon (bench_ablation_aliasing).
//
// Error signatures are also the input to the superposition pruner; in exact
// mode they can be computed on the side with a wider register so pruning
// stays available without injecting aliasing into the verdicts.
//
// One kernel produces every verdict row: MISR linearity means a session's
// error signature is the XOR of its cells' individual error signatures, and
// the group-membership structure is fixed per schedule — so the groups of a
// run of partitions are scored in one pass over the fault's failing cells
// against the PreparedPartitionSet's transposed position→global-group table,
// one XOR (or one bit-set) per (cell, partition). No per-group membership
// scan ever runs. run() scores the whole schedule this way; runPartition()
// scores one partition of it (an adaptive step, a recovery re-run, an
// intermittent sample, a serve partition). See docs/ARCHITECTURE.md §11.
//
// runReference() is the literal one-session-at-a-time evaluation (per-group
// intersects / per-partition signature bucketing, each cell's group found
// through Partition::groupOf, never through the prepared table it checks).
// No production path runs it: it is the parity oracle that tests/diagnosis/
// batched_parity_test and prepared_partitions_test hold the kernel
// bit-identical to, across schemes, circuits, topologies, signature modes,
// pruning and noise.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "bist/misr.hpp"
#include "bist/space_compactor.hpp"
#include "bist/scan_topology.hpp"
#include "diagnosis/partition.hpp"
#include "diagnosis/prepared_partitions.hpp"
#include "sim/fault_simulator.hpp"

namespace scandiag {

enum class SignatureMode {
  Exact,  // group fails iff any selected error bit
  Misr,   // group fails iff MISR error signature != 0
};

/// Signature width used for pruning in Exact mode (wider = less chance of
/// pruning away a true failing cell by XOR cancellation). Every signature
/// register, this one and the verdict MISR, uses the primitive polynomial of
/// its degree (primitiveTapMask).
inline constexpr unsigned kPruneDegree = 32;

struct SessionConfig {
  SignatureMode mode = SignatureMode::Exact;
  std::size_t numPatterns = 128;
  /// Verdict MISR degree (mode == Misr).
  unsigned misrDegree = 16;
  /// Compute per-group error signatures for the superposition pruner.
  bool computeSignatures = false;
  /// Optional space compactor between the scan-out lines and the MISR (must
  /// outlive the engine). Null = one MISR input per chain.
  const SpaceCompactor* compactor = nullptr;
};

struct GroupVerdicts {
  /// failing[p].test(g): group g of partition p failed.
  std::vector<BitVector> failing;
  /// errorSig[p][g]: group error signature (present iff hasSignatures).
  std::vector<std::vector<std::uint64_t>> errorSig;
  bool hasSignatures = false;
  unsigned signatureDegree = 0;
};

/// One partition's worth of session results (the retry granularity: a tester
/// re-run repeats the b sessions of one partition, not the whole schedule).
struct PartitionVerdictRow {
  BitVector failing;                    // failing.test(g): group g failed
  std::vector<std::uint64_t> errorSig;  // empty unless signatures are computed
};

/// Reusable buffers for the scoring kernel. One lives on each thread-pool
/// worker's stack for a whole chunk of faults (DiagnosisPipeline::evaluate),
/// or for one fault's adaptive steps, so the steady state allocates nothing
/// per call. Never shared across threads.
struct SessionBatchScratch {
  BitVector failingPositions;
  std::vector<std::size_t> cellPos;
  std::vector<std::uint64_t> cellSig;
  /// Flat per-group scoreboards of the scored partitions (PreparedPartitionSet
  /// numbering, from the first scored partition's offset).
  BitVector groupFail;
  std::vector<std::uint64_t> flatSig;
};

class SessionEngine {
 public:
  SessionEngine(const ScanTopology& topology, const SessionConfig& config);

  const ScanTopology& topology() const { return *topology_; }
  const SessionConfig& config() const { return config_; }

  /// Scores every partition of the schedule in one pass (one verdict row
  /// each; an empty schedule gives zero rows). `scratch` (optional) reuses
  /// buffers across calls.
  GroupVerdicts run(const PreparedPartitionSet& prepared, const FaultResponse& response,
                    SessionBatchScratch* scratch = nullptr) const;

  /// Per-session reference scorer — the parity oracle run() and
  /// runPartition() are tested against. Only tests and bench_perf call it.
  GroupVerdicts runReference(const PreparedPartitionSet& prepared,
                             const FaultResponse& response) const;

  /// Re-runs the sessions of partition `index` (same patterns, same capture
  /// data — on a noiseless tester this reproduces run()'s row for that
  /// partition bit-for-bit), through run()'s kernel. This is the unit the
  /// adaptive planner runs per step and the recovery layer re-executes when a
  /// session verdict is suspect. It counts what one partition's sessions
  /// cost and none of run()'s batch counters.
  PartitionVerdictRow runPartition(const PreparedPartitionSet& prepared, std::size_t index,
                                   const FaultResponse& response,
                                   SessionBatchScratch* scratch = nullptr) const;

  /// Per-cell error signature of one failing cell (line = its chain, cycle =
  /// pattern * maxChainLength + position). Exposed for tests.
  std::uint64_t cellErrorSignature(std::size_t cell, const BitVector& errorStream) const;

 private:
  const MisrLinearModel& model() const;
  /// Per-cell signature-contribution table: contributions()[cell * patterns
  /// + t] is the final-signature weight of an error in `cell` at pattern t
  /// (compactor columns folded in). Built once per engine under call_once;
  /// null when the topology is too large for the table (the kernel then
  /// computes signatures through the per-bit model path — identical values,
  /// just without the precomputed gather).
  const std::uint64_t* contributions() const;
  /// The scoring kernel: verdict rows of partitions [first, last) of
  /// `prepared`, in one pass over the fault's failing cells. Counts only
  /// signature_words_hashed; adds the (cell, partition) contributions it
  /// folded to `contribCells`.
  GroupVerdicts score(const PreparedPartitionSet& prepared, std::size_t first, std::size_t last,
                      const FaultResponse& response, SessionBatchScratch& s,
                      std::uint64_t& contribCells) const;
  void prepareCells(const FaultResponse& response, bool needSignatures,
                    BitVector& failingPositions, std::vector<std::size_t>& cellPos,
                    std::vector<std::uint64_t>& cellSig,
                    const std::uint64_t* contribTable) const;
  PartitionVerdictRow computeRow(const Partition& partition, const BitVector& failingPositions,
                                 const std::vector<std::size_t>& cellPos,
                                 const std::vector<std::uint64_t>& cellSig,
                                 bool needSignatures) const;

  const ScanTopology* topology_;
  SessionConfig config_;
  // Lazy (big precompute, only needed in signature modes); call_once so
  // concurrent run() calls from the thread pool race-freely share one model.
  mutable std::once_flag modelOnce_;
  mutable std::unique_ptr<MisrLinearModel> model_;
  // Lazy per-cell contribution table (the kernel); same sharing rule.
  mutable std::once_flag contribOnce_;
  mutable std::vector<std::uint64_t> contrib_;
  mutable bool contribReady_ = false;
};

}  // namespace scandiag

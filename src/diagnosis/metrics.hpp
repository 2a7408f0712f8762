// Diagnostic-resolution metric (paper §4):
//
//   DR = ( Σ_f |candidate cells(f)| − Σ_f |actual failing cells(f)| )
//        ─────────────────────────────────────────────────────────────
//                       Σ_f |actual failing cells(f)|
//
// DR = 0 means every candidate set collapsed onto exactly the failing cells;
// lower is better. Undetected faults (no failing cells) add nothing to either
// sum and are excluded upstream (DESIGN.md §5 item 2).
#pragma once

#include <cstddef>
#include <cstdint>

namespace scandiag {

// All counters are 64-bit and every addition is overflow-checked (throws
// std::logic_error): parallel evaluation reduces many per-fault counts — and
// merged sub-accumulators — into one accumulator, where a silent wrap would
// quietly corrupt DR instead of failing one fault loudly.
class DrAccumulator {
 public:
  void add(std::size_t candidateCells, std::size_t actualFailingCells);

  /// Folds another accumulator in (the parallel sum path: one accumulator
  /// per worker chunk, merged in chunk order). Overflow-checked like add().
  void merge(const DrAccumulator& other);

  std::uint64_t faults() const { return faults_; }
  std::uint64_t sumCandidates() const { return sumCandidates_; }
  std::uint64_t sumActual() const { return sumActual_; }

  /// Throws std::logic_error when no failing cells were accumulated.
  double dr() const;

 private:
  std::uint64_t faults_ = 0;
  std::uint64_t sumCandidates_ = 0;
  std::uint64_t sumActual_ = 0;
};

/// DR plus the diagnosis ladder's outcome over the same faults. A clean
/// single-fault run leaves everything after sumActual at its default.
struct DrReport {
  double dr = 0.0;
  std::size_t faults = 0;
  std::uint64_t sumCandidates = 0;
  std::uint64_t sumActual = 0;
  /// Faults with at least one exonerated true failing cell.
  std::size_t misdiagnosed = 0;
  /// Faults whose candidate set came back empty.
  std::size_t emptyCandidates = 0;
  /// Faults answered superset-only (FaultDiagnosis::resolved == false).
  std::size_t unresolved = 0;
  double meanConfidence = 1.0;
  std::size_t inconsistencies = 0;
  /// Sessions beyond the base schedules (retries, refinement, ATPG, samples).
  std::size_t extraSessions = 0;
  std::size_t unionSplits = 0;
  std::size_t atpgPatterns = 0;

  double misdiagnosisRate() const { return faults ? 1.0 * misdiagnosed / faults : 0.0; }
  double emptyRate() const { return faults ? 1.0 * emptyCandidates / faults : 0.0; }
};

}  // namespace scandiag

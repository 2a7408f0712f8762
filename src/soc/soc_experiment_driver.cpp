#include "soc/soc_experiment_driver.hpp"

#include "bist/prpg.hpp"
#include "common/assert.hpp"
#include "common/thread_pool.hpp"

namespace scandiag {

std::vector<FaultResponse> socResponsesForFailingCore(const Soc& soc, std::size_t coreIndex,
                                                      const WorkloadConfig& config) {
  SCANDIAG_REQUIRE(coreIndex < soc.coreCount(), "core index out of range");
  const CoreInstance& core = soc.core(coreIndex);

  const PrpgConfig prpg{PrpgConfig{}.seed ^ (0x9e3779b97f4a7c15ULL * (coreIndex + 1))};
  const std::uint64_t faultSeed = config.faultSeed ^ (0xc2b2ae3d27d4eb4fULL * (coreIndex + 1));

  const PatternSet patterns = generatePatterns(*core.netlist, config.numPatterns, prpg);
  std::vector<FaultResponse> responses = sampleDetectedFaults(
      FaultSimulator(*core.netlist, patterns), config.numFaults, faultSeed);

  // Lift local DFF ordinals to global cell ids.
  const std::size_t total = soc.totalCells();
  for (FaultResponse& r : responses) {
    BitVector global(total);
    for (std::size_t& ord : r.failingCellOrdinals) {
      ord += core.cellOffset;
      global.set(ord);
    }
    r.failingCells = std::move(global);
  }
  return responses;
}

std::vector<FaultResponse> socResponsesForFailingCores(
    const Soc& soc, const std::vector<std::size_t>& coreIndices, const WorkloadConfig& config) {
  SCANDIAG_REQUIRE(!coreIndices.empty(), "need at least one failing core");
  std::vector<std::vector<FaultResponse>> perCore;
  std::size_t count = static_cast<std::size_t>(-1);
  for (std::size_t k : coreIndices) {
    perCore.push_back(socResponsesForFailingCore(soc, k, config));
    count = std::min(count, perCore.back().size());
  }
  std::vector<FaultResponse> combined;
  combined.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FaultResponse merged = perCore[0][i];
    for (std::size_t c = 1; c < perCore.size(); ++c) {
      const FaultResponse& other = perCore[c][i];
      merged.failingCells |= other.failingCells;
      merged.failingCellOrdinals.insert(merged.failingCellOrdinals.end(),
                                        other.failingCellOrdinals.begin(),
                                        other.failingCellOrdinals.end());
      merged.errorStreams.insert(merged.errorStreams.end(), other.errorStreams.begin(),
                                 other.errorStreams.end());
    }
    combined.push_back(std::move(merged));
  }
  return combined;
}

std::uint64_t socSweepIdFor(const DiagnosisConfig& config, std::size_t coreIndex) {
  return setupDigestPiece("core", coreIndex, sweepIdFor(config));
}

std::vector<SocDrRow> evaluateSocDr(const Soc& soc, const WorkloadConfig& workload,
                                    const DiagnosisConfig& config,
                                    const RunControl& control,
                                    SweepCheckpoint* checkpoint) {
  // Cores are independent experiments (each derives its own seeds from the
  // core index), so they fan out across the pool into per-core row slots.
  // Lanes claim cores one at a time, so two large cores never wait for each
  // other on one fixed chunk while another lane idles; the nested
  // pipeline.evaluate() parallelism runs inline on the worker (thread_pool
  // nested-use guard). Row k never depends on scheduling.
  const DiagnosisPipeline pipeline(soc.topology(), config);
  std::vector<SocDrRow> rows(soc.coreCount());
  globalPool().parallelFor(soc.coreCount(), [&](std::size_t k) {
    control.throwIfStopped();
    const std::vector<FaultResponse> responses = socResponsesForFailingCore(soc, k, workload);
    rows[k] = SocDrRow{soc.core(k).name,
                       pipeline.evaluate(responses, control,
                                         SweepJournal{checkpoint, socSweepIdFor(config, k)})};
  });
  return rows;
}

}  // namespace scandiag

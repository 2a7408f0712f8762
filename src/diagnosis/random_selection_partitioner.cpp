#include "diagnosis/random_selection_partitioner.hpp"

#include <bit>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace scandiag {

RandomSelectionPartitioner::RandomSelectionPartitioner(std::uint64_t seed,
                                                       std::size_t chainLength,
                                                       std::size_t groupCount)
    : chainLength_(chainLength), groupCount_(groupCount) {
  SCANDIAG_REQUIRE(chainLength >= 1, "empty scan chain");
  SCANDIAG_REQUIRE(groupCount >= 2 && std::has_single_bit(groupCount),
                   "group count must be a power of two >= 2");
  r_ = static_cast<unsigned>(std::countr_zero(groupCount));
  SCANDIAG_REQUIRE(r_ <= kSelectionLfsr.degree, "label width exceeds LFSR degree");
  Lfsr check(kSelectionLfsr, seed);
  ivr_ = check.state();
}

Partition RandomSelectionPartitioner::next() {
  obs::PhaseScope phase(obs::Phase::PartitionGen);
  obs::count(obs::Counter::PartitionsGenerated);
  Partition p;
  p.groups.assign(groupCount_, BitVector(chainLength_));
  Lfsr lfsr(kSelectionLfsr, ivr_);
  for (std::size_t pos = 0; pos < chainLength_; ++pos) {
    p.groups[lfsr.lowBits(r_)].set(pos);
    lfsr.step();
  }
  ivr_ = lfsr.state();  // "IVR is updated with the current value of the LFSR"
  return p;
}

}  // namespace scandiag

#include "diagnosis/superposition_pruner.hpp"

#include <map>

#include "common/assert.hpp"
#include "common/gf2.hpp"

namespace scandiag {

CandidateSet SuperpositionPruner::prune(const PreparedPartitionSet& prepared,
                                        const GroupVerdicts& verdicts,
                                        const CandidateSet& candidates,
                                        PruneStats* stats) const {
  SCANDIAG_REQUIRE(verdicts.hasSignatures,
                   "superposition pruning needs error signatures (set computeSignatures)");
  SCANDIAG_REQUIRE(prepared.size() == verdicts.failing.size(),
                   "verdicts do not match partitions");
  PruneStats local;
  if (candidates.positions.none() || prepared.empty()) {
    if (stats) *stats = local;
    return candidates;
  }

  // Atoms: candidate positions keyed by their membership vector — the
  // position's global group ids, one contiguous read of the prepared layout.
  const std::size_t numPartitions = prepared.size();
  const std::vector<std::size_t> candPositions = candidates.positions.toIndices();
  std::map<std::vector<std::uint32_t>, std::size_t> atomIndex;
  std::vector<std::vector<std::size_t>> atomPositions;
  for (const std::size_t pos : candPositions) {
    const std::uint32_t* groups = prepared.groupsAtPosition(pos);
    const auto [it, inserted] = atomIndex.emplace(
        std::vector<std::uint32_t>(groups, groups + numPartitions), atomPositions.size());
    if (inserted) atomPositions.emplace_back();
    atomPositions[it->second].push_back(pos);
  }
  const std::size_t numAtoms = atomPositions.size();
  local.atoms = numAtoms;

  // One equation per failing group: XOR of member atoms' signatures equals the
  // observed group error signature. (Passing groups contain no candidate
  // positions, hence no atoms — their equations would be 0 = 0.)
  const unsigned degree = verdicts.signatureDegree;
  Gf2System system(numAtoms, degree);
  for (std::size_t p = 0; p < numPartitions; ++p) {
    const std::size_t offset = prepared.groupOffset(p);
    for (std::size_t g = 0; g < prepared.partition(p).groupCount(); ++g) {
      if (!verdicts.failing[p].test(g)) continue;
      BitVector coeffs(numAtoms);
      for (std::size_t a = 0; a < numAtoms; ++a) {
        // Atom membership is uniform across its positions; test the first.
        if (prepared.groupsAtPosition(atomPositions[a].front())[p] == offset + g) coeffs.set(a);
      }
      BitVector rhs(degree);
      const std::uint64_t sig = verdicts.errorSig[p][g];
      for (unsigned bit = 0; bit < degree; ++bit) {
        if ((sig >> bit) & 1u) rhs.set(bit);
      }
      system.addEquation(coeffs, rhs);
    }
  }

  if (!system.reduce()) {
    // Inconsistent observations (MISR aliasing): pruning would be unsound.
    local.consistent = false;
    if (stats) *stats = local;
    return candidates;
  }

  CandidateSet pruned = candidates;
  for (std::size_t a = 0; a < numAtoms; ++a) {
    if (!system.forcedZero(a)) continue;
    ++local.prunedAtoms;
    for (std::size_t pos : atomPositions[a]) {
      pruned.positions.reset(pos);
      ++local.prunedPositions;
    }
  }
  pruned.cells = topology_->expandPositions(pruned.positions);
  if (stats) *stats = local;
  return pruned;
}

}  // namespace scandiag

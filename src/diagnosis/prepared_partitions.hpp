// Prepared (pre-indexed) partition schedule: the only schedule type the
// session engine and the superposition pruner score and prune.
//
// A diagnosis run applies the same partition sequence to every fault (the
// paper's BIST controller replays one fixed sequence per device), so the
// group structure is indexed once, at construction, and is immutable
// afterwards: it can be shared read-only across faults and across
// thread-pool workers with no synchronization (the same ownership rule as
// the topology and the good-machine data; see docs/ARCHITECTURE.md
// "Hot-path memory discipline").
//
// The index is one layout: groups of all partitions are numbered globally
// (groupOffset(p) + g) and a transposed flat table stores, per shift
// position, the global group id the position belongs to in every partition —
// contiguously, so scoring a fault is one pass over its failing positions
// with a unit-stride inner loop over the schedule instead of a per-group
// membership scan per session (docs/ARCHITECTURE.md §11).
//
// Construction validates the schedule: every partition must span the same
// selection axis and the global group ids must fit the u32 cells of the
// table (std::invalid_argument otherwise), and the groups of each partition
// must be disjoint and cover every position (std::logic_error otherwise). A
// pipeline holding a PreparedPartitionSet never carries a malformed
// schedule. An empty set is valid and scores to zero rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "diagnosis/partition.hpp"

namespace scandiag {

class PreparedPartitionSet {
 public:
  PreparedPartitionSet() = default;

  /// Takes ownership of the schedule and builds the transposed group table
  /// (one O(chainLength) pass per partition, done once for all faults).
  explicit PreparedPartitionSet(std::vector<Partition> partitions);

  std::size_t size() const { return partitions_.size(); }
  bool empty() const { return partitions_.empty(); }

  const std::vector<Partition>& partitions() const { return partitions_; }
  const Partition& partition(std::size_t p) const { return partitions_[p]; }
  const Partition& operator[](std::size_t p) const { return partitions_[p]; }

  /// Total sessions of the schedule (sum of groupCount() over partitions).
  std::size_t totalGroups() const { return groupOffsets_.back(); }

  /// First global group id of partition `p`; global id = groupOffset(p) + g.
  std::size_t groupOffset(std::size_t p) const { return groupOffsets_[p]; }

  /// The `size()` global group ids position `pos` belongs to, one per
  /// partition, contiguous (one cache-friendly read per failing position
  /// covers the whole schedule).
  const std::uint32_t* groupsAtPosition(std::size_t pos) const {
    return posGroups_.data() + pos * partitions_.size();
  }

 private:
  std::vector<Partition> partitions_;
  std::vector<std::size_t> groupOffsets_{0};  // [partition + 1]
  std::vector<std::uint32_t> posGroups_;      // [position * size() + partition]
};

}  // namespace scandiag

#include "diagnosis/prepared_partitions.hpp"

#include <limits>

#include "common/assert.hpp"

namespace scandiag {

PreparedPartitionSet::PreparedPartitionSet(std::vector<Partition> partitions)
    : partitions_(std::move(partitions)) {
  const std::size_t count = partitions_.size();
  groupOffsets_.assign(count + 1, 0);
  for (std::size_t p = 0; p < count; ++p) {
    groupOffsets_[p + 1] = groupOffsets_[p] + partitions_[p].groupCount();
  }
  if (count == 0) return;

  const std::size_t length = partitions_.front().length();
  for (const Partition& p : partitions_) {
    SCANDIAG_REQUIRE(p.length() == length, "partitions span different selection axes");
  }
  SCANDIAG_REQUIRE(totalGroups() <= std::numeric_limits<std::uint32_t>::max(),
                   "global group ids do not fit 32 bits");

  posGroups_.resize(length * count);
  for (std::size_t p = 0; p < count; ++p) {
    const std::vector<std::size_t> table = partitions_[p].groupTable();
    const std::uint32_t offset = static_cast<std::uint32_t>(groupOffsets_[p]);
    for (std::size_t pos = 0; pos < length; ++pos) {
      posGroups_[pos * count + p] = offset + static_cast<std::uint32_t>(table[pos]);
    }
  }
}

}  // namespace scandiag

#include "exec/rid_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/permutation.h"
#include "common/rng.h"

namespace robustmap {
namespace {

// Sorts a copy both ways and expects the same sequence.
void ExpectRidsMatchStdSort(std::vector<Rid> rids) {
  std::vector<Rid> expect = rids;
  std::sort(expect.begin(), expect.end());
  SortRids(&rids);
  EXPECT_EQ(rids, expect);
}

// Rows carry a payload derived from their rid, so a row torn apart by the
// permutation (rid moved, columns not) would show.
std::vector<Row> RowsFor(const std::vector<Rid>& rids) {
  std::vector<Row> rows;
  rows.reserve(rids.size());
  for (Rid rid : rids) {
    Row r;
    r.rid = rid;
    r.SetCol(0, static_cast<int64_t>(rid * 3));
    r.SetCol(2, static_cast<int64_t>(~rid));
    rows.push_back(r);
  }
  return rows;
}

void ExpectRowsMatchStdSort(const std::vector<Rid>& rids) {
  std::vector<Row> rows = RowsFor(rids);
  std::vector<Row> expect = rows;
  std::sort(expect.begin(), expect.end(),
            [](const Row& a, const Row& b) { return a.rid < b.rid; });
  SortRowsByRid(&rows);
  ASSERT_EQ(rows.size(), expect.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].rid, expect[i].rid) << "at " << i;
    ASSERT_EQ(rows[i].cols, expect[i].cols) << "at " << i;
    ASSERT_EQ(rows[i].valid_cols, expect[i].valid_cols) << "at " << i;
  }
}

// Distinct pseudo-random rids below 2^bits.
std::vector<Rid> PermutedRids(size_t n, int bits, uint64_t seed) {
  FeistelPermutation perm(bits, seed);
  std::vector<Rid> rids(n);
  for (size_t i = 0; i < n; ++i) rids[i] = perm.Permute(i);
  return rids;
}

TEST(RidSortTest, SmallAndCutoffSizes) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, kRidSortCutoff - 1,
                   kRidSortCutoff, kRidSortCutoff + 1}) {
    SCOPED_TRACE(n);
    const std::vector<Rid> rids = PermutedRids(n, 12, n + 1);
    ExpectRidsMatchStdSort(rids);
    ExpectRowsMatchStdSort(rids);
  }
}

TEST(RidSortTest, PermutedFullScale) {
  const std::vector<Rid> rids = PermutedRids(size_t{1} << 18, 18, 7);
  ExpectRidsMatchStdSort(rids);
  ExpectRowsMatchStdSort(rids);
}

TEST(RidSortTest, HighBitsSet) {
  // Rids just below 2^32, and some spanning the whole 64-bit range.
  std::vector<Rid> rids = PermutedRids(5000, 16, 3);
  for (Rid& rid : rids) rid = (uint64_t{1} << 32) - 1 - rid;
  ExpectRidsMatchStdSort(rids);
  ExpectRowsMatchStdSort(rids);
  Rng rng(11);
  for (Rid& rid : rids) rid = rng.Next();
  ExpectRidsMatchStdSort(rids);
  ExpectRowsMatchStdSort(rids);
}

TEST(RidSortTest, SharedTopByte) {
  // Every rid has the same top byte and the same third byte.
  std::vector<Rid> rids = PermutedRids(20000, 16, 5);
  const uint64_t shared = (uint64_t{0xab} << 56) | (uint64_t{0x5a} << 16);
  for (Rid& rid : rids) rid |= shared;
  ExpectRidsMatchStdSort(rids);
  ExpectRowsMatchStdSort(rids);
  // One outlier far above the rest: the first pass splits it off, and the
  // passes below find every other rid in a single bucket until bit 16.
  rids = PermutedRids(20000, 16, 6);
  rids[123] = uint64_t{1} << 40;
  ExpectRidsMatchStdSort(rids);
  ExpectRowsMatchStdSort(rids);
}

TEST(RidSortTest, DuplicatesAndSortedInputs) {
  std::vector<Rid> rids;
  Rng rng(2);
  for (int i = 0; i < 3000; ++i) rids.push_back(rng.NextBounded(100));
  ExpectRidsMatchStdSort(rids);
  std::sort(rids.begin(), rids.end());
  ExpectRidsMatchStdSort(rids);
  std::reverse(rids.begin(), rids.end());
  ExpectRidsMatchStdSort(rids);
  ExpectRidsMatchStdSort(std::vector<Rid>(500, 42));
}

}  // namespace
}  // namespace robustmap

#include "index/procedural_index.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

namespace robustmap {
namespace {

class ProceduralIndexTest : public ::testing::Test {
 protected:
  ProceduralIndexTest()
      : device_(DiskParameters{}, &clock_), pool_(&device_, 1024) {
    ctx_.clock = &clock_;
    ctx_.device = &device_;
    ctx_.pool = &pool_;
    ProceduralTableOptions topts;
    topts.row_bits = 12;   // 4096 rows
    topts.value_bits = 6;  // 64 values x 64 dupes
    table_ = ProceduralTable::Create(&device_, topts).ValueOrDie();
  }

  std::unique_ptr<ProceduralIndex> MakeIndex(std::vector<uint32_t> cols) {
    ProceduralIndexOptions opts;
    opts.key_columns = std::move(cols);
    opts.entries_per_leaf = 64;
    return ProceduralIndex::Create(&device_, table_.get(), opts).ValueOrDie();
  }

  VirtualClock clock_;
  SimDevice device_;
  LruBufferPool pool_;
  RunContext ctx_;
  std::unique_ptr<ProceduralTable> table_;
};

TEST_F(ProceduralIndexTest, SingleColumnEntriesSortedAndComplete) {
  auto idx = MakeIndex({0});
  std::set<Rid> rids;
  int64_t prev_key = -1;
  for (uint64_t k = 0; k < idx->num_entries(); ++k) {
    IndexEntry e = idx->EntryAt(k);
    ASSERT_GE(e.key0, prev_key);
    prev_key = e.key0;
    ASSERT_EQ(e.key0, table_->ValueAt(e.rid, 0));
    rids.insert(e.rid);
  }
  EXPECT_EQ(rids.size(), table_->num_rows());  // every row indexed once
}

TEST_F(ProceduralIndexTest, SingleColumnRangeCountsExact) {
  auto idx = MakeIndex({0});
  // Range [0, k) holds exactly k * 64 entries for every k.
  for (int64_t k : {1, 7, 32, 64}) {
    EXPECT_EQ(idx->OrdinalLowerBound(k, INT64_MIN),
              static_cast<uint64_t>(k) * 64);
  }
  EXPECT_EQ(idx->OrdinalLowerBound(INT64_MIN, INT64_MIN), 0u);
  EXPECT_EQ(idx->OrdinalLowerBound(64, 0), idx->num_entries());
}

TEST_F(ProceduralIndexTest, CompositeEntriesSortedByBothKeys) {
  auto idx = MakeIndex({0, 1});
  IndexEntry prev{-1, -1, 0};
  std::set<Rid> rids;
  for (uint64_t k = 0; k < idx->num_entries(); ++k) {
    IndexEntry e = idx->EntryAt(k);
    ASSERT_FALSE(EntryLess(e, prev)) << "ordinal " << k;
    prev = e;
    ASSERT_EQ(e.key0, table_->ValueAt(e.rid, 0));
    ASSERT_EQ(e.key1, table_->ValueAt(e.rid, 1));
    rids.insert(e.rid);
  }
  EXPECT_EQ(rids.size(), table_->num_rows());
}

TEST_F(ProceduralIndexTest, CompositeSeekSemantics) {
  auto idx = MakeIndex({0, 1});
  // Brute-force the expected lower bound for a few probes.
  for (int64_t k0 : {0, 5, 63}) {
    for (int64_t k1 : {0, 13, 40, 63}) {
      uint64_t got = idx->OrdinalLowerBound(k0, k1);
      uint64_t expect = 0;
      while (expect < idx->num_entries()) {
        IndexEntry e = idx->EntryAt(expect);
        if (e.key0 > k0 || (e.key0 == k0 && e.key1 >= k1)) break;
        ++expect;
      }
      ASSERT_EQ(got, expect) << "probe (" << k0 << "," << k1 << ")";
    }
  }
}

TEST_F(ProceduralIndexTest, CursorVisitsRangeAndChargesLeafIo) {
  auto idx = MakeIndex({0});
  uint64_t reads_before = device_.stats().total_reads();
  auto cursor = idx->Seek(&ctx_, 10, INT64_MIN);
  uint64_t count = 0;
  while (cursor->Valid() && cursor->entry().key0 <= 12) {
    ++count;
    cursor->Next(&ctx_);
  }
  EXPECT_EQ(count, 3u * 64);  // values 10, 11, 12
  // 192 entries at 64/leaf crosses at least 2 leaf boundaries + the probe.
  EXPECT_GE(device_.stats().total_reads() + device_.stats().buffer_hits -
                reads_before,
            3u);
}

TEST_F(ProceduralIndexTest, SeekMidGroupOnComposite) {
  auto idx = MakeIndex({0, 1});
  auto cursor = idx->Seek(&ctx_, 3, 50);
  ASSERT_TRUE(cursor->Valid());
  const IndexEntry& e = cursor->entry();
  EXPECT_TRUE(e.key0 > 3 || (e.key0 == 3 && e.key1 >= 50));
}

// Cursors on one composite index, stepped in turn on one thread, each see
// exactly the entries at their own ordinals. 16-entry groups on 24-entry
// leaves put group and leaf boundaries at different ordinals, and the
// cursors start in different groups, in the same group, and mid-group.
TEST_F(ProceduralIndexTest, InterleavedCompositeCursorsMatchEntryAt) {
  ProceduralTableOptions topts;
  topts.row_bits = 12;
  topts.value_bits = 8;  // 256 values x 16 dupes
  auto table = ProceduralTable::Create(&device_, topts).ValueOrDie();
  ProceduralIndexOptions opts;
  opts.key_columns = {0, 1};
  opts.entries_per_leaf = 24;
  auto idx = ProceduralIndex::Create(&device_, table.get(), opts).ValueOrDie();

  using Probe = std::pair<int64_t, int64_t>;
  const Probe probes[] = {{3, 100}, {3, 0}, {40, 7}, {40, 200}, {255, 128}};
  std::vector<std::unique_ptr<IndexCursor>> cursors;
  std::vector<uint64_t> ordinals;
  for (const auto& [k0, k1] : probes) {
    cursors.push_back(idx->Seek(&ctx_, k0, k1));
    ordinals.push_back(idx->OrdinalLowerBound(k0, k1));
  }
  for (int step = 0; step < 200; ++step) {
    for (size_t c = 0; c < cursors.size(); ++c) {
      if (!cursors[c]->Valid()) {
        ASSERT_EQ(ordinals[c], idx->num_entries()) << "cursor " << c;
        continue;
      }
      ASSERT_EQ(cursors[c]->entry(), idx->EntryAt(ordinals[c]))
          << "cursor " << c << " step " << step;
      cursors[c]->Next(&ctx_);
      ++ordinals[c];
    }
  }
  // The last cursor started in the last group and ran off the end.
  EXPECT_FALSE(cursors.back()->Valid());
}

TEST_F(ProceduralIndexTest, HeightAndLeafCount) {
  auto idx = MakeIndex({0});
  EXPECT_EQ(idx->num_leaf_pages(), 4096u / 64);
  EXPECT_GE(idx->height(), 2);
}

TEST_F(ProceduralIndexTest, RejectsBadOptions) {
  ProceduralIndexOptions opts;
  EXPECT_FALSE(ProceduralIndex::Create(&device_, table_.get(), opts).ok());
  opts.key_columns = {0, 1, 2};
  EXPECT_FALSE(ProceduralIndex::Create(&device_, table_.get(), opts).ok());
  opts.key_columns = {9};
  EXPECT_FALSE(ProceduralIndex::Create(&device_, table_.get(), opts).ok());
}

}  // namespace
}  // namespace robustmap

#include "index/procedural_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace robustmap {

// A cursor owns the composite group it stands in and re-materializes only
// when a step crosses into the next group, so cursors on one thread (or
// on many) never evict each other's groups.
class ProceduralIndex::Cursor final : public IndexCursor {
 public:
  Cursor(const ProceduralIndex* index, uint64_t ordinal, Group group)
      : index_(index), ordinal_(ordinal), group_(std::move(group)) {
    if (Valid()) Load();
  }

  bool Valid() const override { return ordinal_ < index_->num_entries(); }

  void Next(RunContext* ctx) override {
    assert(Valid());
    ++ordinal_;
    if (!Valid()) return;
    if (ordinal_ % index_->entries_per_leaf() == 0) {
      ctx->ReadPage(index_->LeafPageOf(ordinal_), /*cacheable=*/true);
    }
    Load();
  }

  const IndexEntry& entry() const override { return entry_; }

 private:
  void Load() {
    if (!index_->composite()) {
      entry_ = index_->EntryAt(ordinal_);
      return;
    }
    const int shift = index_->table_->value_shift();
    const uint64_t g = ordinal_ >> shift;
    if (g != group_.number) index_->MaterializeGroup(g, &group_);
    entry_ = group_.entries[ordinal_ - (g << shift)];
  }

  const ProceduralIndex* index_;
  uint64_t ordinal_;
  Group group_;
  IndexEntry entry_;
};

Result<std::unique_ptr<ProceduralIndex>> ProceduralIndex::Create(
    SimDevice* device, const ProceduralTable* table,
    const ProceduralIndexOptions& opts) {
  if (opts.key_columns.empty() || opts.key_columns.size() > 2) {
    return Status::InvalidArgument("index supports 1 or 2 key columns");
  }
  for (uint32_t c : opts.key_columns) {
    if (c >= table->num_columns()) {
      return Status::InvalidArgument("key column beyond table schema");
    }
  }
  if (opts.entries_per_leaf < 2) {
    return Status::InvalidArgument("entries_per_leaf too small");
  }
  uint64_t leaves =
      (table->num_rows() + opts.entries_per_leaf - 1) / opts.entries_per_leaf;
  uint64_t base = device->AllocateExtent(leaves);
  return std::unique_ptr<ProceduralIndex>(
      new ProceduralIndex(device, table, opts, base));
}

ProceduralIndex::ProceduralIndex(SimDevice* device,
                                 const ProceduralTable* table,
                                 const ProceduralIndexOptions& opts,
                                 uint64_t base_page)
    : device_(device),
      table_(table),
      opts_(opts),
      base_page_(base_page) {
  (void)device_;
  num_leaf_pages_ =
      (table->num_rows() + opts_.entries_per_leaf - 1) / opts_.entries_per_leaf;
  double n = static_cast<double>(std::max<uint64_t>(1, num_leaf_pages_));
  height_ =
      1 + std::max(1, static_cast<int>(std::ceil(
                          std::log(n) / std::log(opts_.internal_fanout))));
}

void ProceduralIndex::MaterializeGroup(uint64_t g, Group* group) const {
  const auto& perm0 = table_->column_permutation(opts_.key_columns[0]);
  uint64_t rpv = table_->rows_per_value();
  group->entries.clear();
  group->entries.reserve(rpv);
  for (uint64_t j = 0; j < rpv; ++j) {
    Rid rid = perm0.Inverse(g * rpv + j);
    IndexEntry e;
    e.key0 = static_cast<int64_t>(g);
    e.key1 = table_->ValueAt(rid, opts_.key_columns[1]);
    e.rid = rid;
    group->entries.push_back(e);
  }
  std::sort(group->entries.begin(), group->entries.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              if (a.key1 != b.key1) return a.key1 < b.key1;
              return a.rid < b.rid;
            });
  group->number = g;
}

IndexEntry ProceduralIndex::EntryAt(uint64_t k) const {
  assert(k < num_entries());
  if (opts_.key_columns.size() == 1) {
    const auto& perm = table_->column_permutation(opts_.key_columns[0]);
    IndexEntry e;
    e.key0 = static_cast<int64_t>(k >> table_->value_shift());
    e.key1 = 0;
    e.rid = perm.Inverse(k);
    return e;
  }
  uint64_t rpv = table_->rows_per_value();
  Group group;
  MaterializeGroup(k / rpv, &group);
  return group.entries[k % rpv];
}

uint64_t ProceduralIndex::LowerBound(int64_t k0, int64_t k1,
                                     Group* group) const {
  int64_t domain = table_->value_domain();
  uint64_t n = num_entries();
  if (k0 < 0) return 0;
  if (k0 >= domain) return n;
  uint64_t rpv = table_->rows_per_value();
  if (opts_.key_columns.size() == 1) {
    // k1 is ignored; the first entry with key0 >= k0 starts value k0's run.
    return static_cast<uint64_t>(k0) * rpv;
  }
  if (k1 <= 0) return static_cast<uint64_t>(k0) * rpv;
  if (k1 >= domain) return (static_cast<uint64_t>(k0) + 1) * rpv;
  MaterializeGroup(static_cast<uint64_t>(k0), group);
  const std::vector<IndexEntry>& entries = group->entries;
  auto it = std::lower_bound(entries.begin(), entries.end(), k1,
                             [](const IndexEntry& e, int64_t key) {
                               return e.key1 < key;
                             });
  return static_cast<uint64_t>(k0) * rpv +
         static_cast<uint64_t>(it - entries.begin());
}

std::unique_ptr<IndexCursor> ProceduralIndex::Seek(RunContext* ctx, int64_t k0,
                                                   int64_t k1) {
  // Internal levels modeled as cached: CPU per level; then one leaf read.
  ctx->ChargeCpuOps(static_cast<uint64_t>(height_) * 8,
                    ctx->cpu.compare_seconds);
  Group group;
  uint64_t ordinal = LowerBound(k0, k1, &group);
  if (ordinal < num_entries()) {
    ctx->ReadPage(LeafPageOf(ordinal), /*cacheable=*/true);
  }
  return std::make_unique<Cursor>(this, ordinal, std::move(group));
}

}  // namespace robustmap

#include "storage/procedural_table.h"

namespace robustmap {

Result<std::unique_ptr<ProceduralTable>> ProceduralTable::Create(
    SimDevice* device, const ProceduralTableOptions& opts) {
  if (opts.row_bits < 2 || opts.row_bits > FeistelPermutation::kMaxBits ||
      opts.row_bits % 2 != 0) {
    return Status::InvalidArgument("row_bits must be even and in [2, 32]");
  }
  if (opts.value_bits < 1 || opts.value_bits > opts.row_bits) {
    return Status::InvalidArgument("value_bits must be in [1, row_bits]");
  }
  if (opts.num_columns == 0 || opts.num_columns > kMaxColumns) {
    return Status::InvalidArgument("num_columns must be in [1, 4]");
  }
  if (opts.rows_per_page == 0) {
    return Status::InvalidArgument("rows_per_page must be positive");
  }
  uint64_t rows = uint64_t{1} << opts.row_bits;
  uint64_t pages = (rows + opts.rows_per_page - 1) / opts.rows_per_page;
  uint64_t base = device->AllocateExtent(pages);
  return std::unique_ptr<ProceduralTable>(
      new ProceduralTable(device, opts, base));
}

ProceduralTable::ProceduralTable(SimDevice* device,
                                 const ProceduralTableOptions& opts,
                                 uint64_t base_page)
    : device_(device),
      opts_(opts),
      num_rows_(uint64_t{1} << opts.row_bits),
      base_page_(base_page) {
  (void)device_;
  perms_.reserve(opts.num_columns);
  for (uint32_t c = 0; c < opts.num_columns; ++c) {
    perms_.emplace_back(opts.row_bits, opts.seed * 0x9e3779b9u + c + 1);
  }
}

Status ProceduralTable::ReadPage(RunContext* ctx, uint64_t page_no,
                                 bool cacheable, std::vector<Row>* out) const {
  if (page_no >= num_pages()) {
    return Status::OutOfRange("page beyond procedural table");
  }
  ctx->ReadPage(base_page_ + page_no, cacheable);
  Rid first = page_no * opts_.rows_per_page;
  Rid last = std::min<uint64_t>(first + opts_.rows_per_page, num_rows_);
  for (Rid rid = first; rid < last; ++rid) {
    Row r;
    r.rid = rid;
    for (uint32_t c = 0; c < opts_.num_columns; ++c) {
      r.SetCol(c, ValueAt(rid, c));
    }
    out->push_back(r);
  }
  return Status::OK();
}

Status ProceduralTable::FetchRow(RunContext* ctx, Rid rid, Row* out) const {
  if (rid >= num_rows_) return Status::OutOfRange("rid beyond table");
  ctx->ReadPage(PageOfRid(rid), /*cacheable=*/true);
  ctx->ChargeCpuOps(1, ctx->cpu.row_fetch_seconds);
  out->rid = rid;
  for (uint32_t c = 0; c < opts_.num_columns; ++c) {
    out->SetCol(c, ValueAt(rid, c));
  }
  return Status::OK();
}

}  // namespace robustmap

#include "exec/fetch.h"

#include "exec/rid_sort.h"
#include "exec/sort.h"

namespace robustmap {

Status FetchOp::Open(RunContext* ctx) {
  rids_.clear();
  rid_pos_ = 0;
  bitmap_.clear();
  bitmap_scan_pos_ = 0;
  rows_fetched_ = 0;
  RM_RETURN_IF_ERROR(child_->Open(ctx));
  if (policy_ != FetchPolicy::kNaive) {
    return Prepare(ctx);
  }
  return Status::OK();
}

Status FetchOp::Prepare(RunContext* ctx) {
  Row r;
  if (policy_ == FetchPolicy::kSorted) {
    while (child_->Next(ctx, &r)) rids_.push_back(r.rid);
    RM_RETURN_IF_ERROR(child_->status());
    child_->Close(ctx);
    // Rid sort: 8-byte items under the sort memory budget.
    ChargeSortCost(ctx, rids_.size(), sizeof(Rid), ctx->sort_memory_bytes,
                   SpillKind::kGraceful);
    SortRids(&rids_);
    return Status::OK();
  }
  // kBitmap: one bit per table row; insertion is cheap and order-free.
  bitmap_bits_ = table_->num_rows();
  bitmap_.assign((bitmap_bits_ + 63) / 64, 0);
  uint64_t inserted = 0;
  while (child_->Next(ctx, &r)) {
    bitmap_[r.rid >> 6] |= uint64_t{1} << (r.rid & 63);
    ++inserted;
  }
  RM_RETURN_IF_ERROR(child_->status());
  child_->Close(ctx);
  ctx->ChargeCpuOps(inserted, ctx->cpu.bitmap_set_seconds);
  // The sweep below scans every bitmap word once.
  ctx->ChargeCpuOps(bitmap_.size(), ctx->cpu.bitmap_set_seconds);
  return Status::OK();
}

bool FetchOp::NextRid(RunContext* ctx, Rid* rid) {
  switch (policy_) {
    case FetchPolicy::kNaive: {
      Row r;
      if (!child_->Next(ctx, &r)) {
        status_ = child_->status();
        return false;
      }
      *rid = r.rid;
      return true;
    }
    case FetchPolicy::kSorted: {
      if (rid_pos_ >= rids_.size()) return false;
      *rid = rids_[rid_pos_++];
      return true;
    }
    case FetchPolicy::kBitmap: {
      while (bitmap_scan_pos_ < bitmap_bits_) {
        uint64_t word_idx = bitmap_scan_pos_ >> 6;
        uint64_t word = bitmap_[word_idx] >> (bitmap_scan_pos_ & 63);
        if (word == 0) {
          bitmap_scan_pos_ = (word_idx + 1) << 6;
          continue;
        }
        bitmap_scan_pos_ += static_cast<uint64_t>(__builtin_ctzll(word));
        *rid = bitmap_scan_pos_;
        ++bitmap_scan_pos_;
        return true;
      }
      return false;
    }
  }
  return false;
}

bool FetchOp::Next(RunContext* ctx, Row* out) {
  Rid rid;
  while (NextRid(ctx, &rid)) {
    Status s = table_->FetchRow(ctx, rid, out);
    if (!s.ok()) {
      status_ = s;
      return false;
    }
    ++rows_fetched_;
    if (EvalPredicates(ctx, residual_, *out)) return true;
  }
  return false;
}

void FetchOp::Close(RunContext* ctx) {
  if (policy_ == FetchPolicy::kNaive) child_->Close(ctx);
  rids_.clear();
  rids_.shrink_to_fit();
  bitmap_.clear();
  bitmap_.shrink_to_fit();
}

std::string FetchOp::DebugName() const {
  const char* p = policy_ == FetchPolicy::kNaive    ? "naive"
                  : policy_ == FetchPolicy::kSorted ? "sorted"
                                                    : "bitmap";
  std::string name = "Fetch(" + std::string(p);
  for (const auto& pred : residual_) name += ", residual " + pred.ToString();
  name += ") <- " + child_->DebugName();
  return name;
}

}  // namespace robustmap

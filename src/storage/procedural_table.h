#ifndef ROBUSTMAP_STORAGE_PROCEDURAL_TABLE_H_
#define ROBUSTMAP_STORAGE_PROCEDURAL_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/permutation.h"
#include "common/status.h"
#include "storage/table.h"

namespace robustmap {

/// Options for a procedural (synthetic) table.
struct ProceduralTableOptions {
  /// Table has 2^row_bits rows (row_bits must be even and at most 32 for
  /// the Feistel permutation; 20 => 1M rows, 26 => 67M rows ~ paper scale).
  int row_bits = 20;

  /// Column values are uniform over [0, 2^value_bits); each value occurs
  /// exactly 2^(row_bits - value_bits) times. value_bits <= row_bits.
  int value_bits = 14;

  uint32_t num_columns = 2;
  uint32_t rows_per_page = 64;  ///< 128-byte rows on 8 KiB pages
  uint64_t seed = 42;
};

/// Synthetic table of 2^n rows whose contents are *derived*, not stored.
///
/// Column `c` of row `rid` has value `perm_c(rid) >> (row_bits - value_bits)`
/// where `perm_c` is an invertible Feistel permutation. This gives uniform,
/// pairwise (pseudo-)independent columns with exactly calibrated predicate
/// selectivities, and lets index leaves be synthesized on demand: the k-th
/// smallest raw value of column c belongs to row `perm_c^{-1}(k)`.
///
/// I/O charging is identical to `HeapTable`; only the byte materialization
/// differs. This is the substitution for the paper's 60M-row TPC-H lineitem
/// (DESIGN.md §2).
class ProceduralTable final : public Table {
 public:
  static Result<std::unique_ptr<ProceduralTable>> Create(
      SimDevice* device, const ProceduralTableOptions& opts);

  // Table interface.
  uint64_t num_rows() const override { return num_rows_; }
  uint32_t num_columns() const override { return opts_.num_columns; }
  uint32_t rows_per_page() const override { return opts_.rows_per_page; }
  uint64_t base_page() const override { return base_page_; }
  Status ReadPage(RunContext* ctx, uint64_t page_no, bool cacheable,
                  std::vector<Row>* out) const override;
  Status FetchRow(RunContext* ctx, Rid rid, Row* out) const override;

  /// Value of column `col` for row `rid` (no cost; used by indexes and
  /// verification).
  int64_t ValueAt(Rid rid, uint32_t col) const {
    return static_cast<int64_t>(perms_[col].Permute(rid) >> value_shift());
  }

  /// The permutation backing column `col` (procedural indexes invert it).
  const FeistelPermutation& column_permutation(uint32_t col) const {
    return perms_[col];
  }

  int row_bits() const { return opts_.row_bits; }
  int value_bits() const { return opts_.value_bits; }
  /// Right-shift turning a raw permuted row id into a column value.
  int value_shift() const { return opts_.row_bits - opts_.value_bits; }
  /// Number of rows sharing each column value: 2^(row_bits - value_bits).
  uint64_t rows_per_value() const { return uint64_t{1} << value_shift(); }
  /// Size of the value domain: 2^value_bits.
  int64_t value_domain() const { return int64_t{1} << opts_.value_bits; }

 private:
  ProceduralTable(SimDevice* device, const ProceduralTableOptions& opts,
                  uint64_t base_page);

  SimDevice* device_;
  ProceduralTableOptions opts_;
  uint64_t num_rows_;
  uint64_t base_page_;
  std::vector<FeistelPermutation> perms_;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_STORAGE_PROCEDURAL_TABLE_H_

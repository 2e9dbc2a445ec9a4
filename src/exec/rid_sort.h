#ifndef ROBUSTMAP_EXEC_RID_SORT_H_
#define ROBUSTMAP_EXEC_RID_SORT_H_

#include <cstddef>
#include <vector>

#include "storage/row.h"

namespace robustmap {

/// Ranges shorter than this are finished by insertion sort instead of
/// another radix pass.
inline constexpr size_t kRidSortCutoff = 64;

/// Sorts rids ascending, in place.
void SortRids(std::vector<Rid>* rids);

/// Sorts rows ascending by rid, in place. Rows with equal rids end up in
/// an unspecified order, so callers rely on rids being unique.
void SortRowsByRid(std::vector<Row>* rows);

}  // namespace robustmap

#endif  // ROBUSTMAP_EXEC_RID_SORT_H_

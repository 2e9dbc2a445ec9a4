#include "exec/rid_sort.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace robustmap {

namespace {

// MSD radix sort on the rid, one byte per pass, permuting in place
// (American flag sort): no scratch buffer beyond three 256-entry arrays
// per recursion level, of which there are at most eight.
constexpr int kDigitBits = 8;
constexpr size_t kBuckets = size_t{1} << kDigitBits;

Rid RidOf(Rid rid) { return rid; }
Rid RidOf(const Row& row) { return row.rid; }

template <typename T>
void InsertionSort(T* first, T* last) {
  if (first == last) return;
  for (T* i = first + 1; i < last; ++i) {
    T v = std::move(*i);
    T* j = i;
    for (; j > first && RidOf(v) < RidOf(*(j - 1)); --j) {
      *j = std::move(*(j - 1));
    }
    *j = std::move(v);
  }
}

// Sorts [first, last), whose rids agree on every bit at or above
// shift + kDigitBits, by the byte at `shift` and then recursively below it.
template <typename T>
void RadixPass(T* first, T* last, int shift) {
  const size_t n = static_cast<size_t>(last - first);
  if (n < kRidSortCutoff) {
    InsertionSort(first, last);
    return;
  }
  const auto digit = [shift](const T& v) {
    return static_cast<size_t>(RidOf(v) >> shift) & (kBuckets - 1);
  };
  const int next_shift = shift > kDigitBits ? shift - kDigitBits : 0;
  size_t count[kBuckets] = {};
  for (T* p = first; p < last; ++p) ++count[digit(*p)];
  if (count[digit(*first)] == n) {
    // One bucket holds everything: nothing to permute at this digit.
    if (shift > 0) RadixPass(first, last, next_shift);
    return;
  }
  size_t head[kBuckets];
  size_t end[kBuckets];
  size_t pos = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    head[b] = pos;
    pos += count[b];
    end[b] = pos;
  }
  for (size_t b = 0; b < kBuckets; ++b) {
    while (head[b] < end[b]) {
      T v = std::move(first[head[b]]);
      for (size_t d = digit(v); d != b; d = digit(v)) {
        std::swap(v, first[head[d]++]);
      }
      first[head[b]++] = std::move(v);
    }
  }
  if (shift == 0) return;
  T* bucket = first;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (count[b] > 1) RadixPass(bucket, bucket + count[b], next_shift);
    bucket += count[b];
  }
}

template <typename T>
void SortByRid(std::vector<T>* items) {
  if (items->size() < 2) return;
  T* first = items->data();
  T* last = first + items->size();
  if (items->size() < kRidSortCutoff) {
    InsertionSort(first, last);
    return;
  }
  // Start at the byte that ends at the highest bit on which any two rids
  // differ: bits above it are common to all and need no pass.
  Rid lo = RidOf(*first);
  Rid hi = lo;
  for (const T* p = first; p < last; ++p) {
    lo = std::min(lo, RidOf(*p));
    hi = std::max(hi, RidOf(*p));
  }
  if (lo == hi) return;
  const int top_bit = std::bit_width(lo ^ hi) - 1;
  RadixPass(first, last, top_bit >= kDigitBits ? top_bit - kDigitBits + 1 : 0);
}

}  // namespace

void SortRids(std::vector<Rid>* rids) { SortByRid(rids); }

void SortRowsByRid(std::vector<Row>* rows) { SortByRid(rows); }

}  // namespace robustmap

#ifndef ROBUSTMAP_COMMON_PERMUTATION_H_
#define ROBUSTMAP_COMMON_PERMUTATION_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace robustmap {

/// Invertible pseudo-random permutation of [0, 2^bits), bits even, 2..32.
///
/// Implemented as a 4-round balanced Feistel network over `bits/2`-bit
/// halves; round r maps half h to `Mix64(h ^ key_r)` masked to `bits/2`
/// bits. The permutation is the backbone of procedural storage: column
/// values are defined as `Permute(rid)`-derived, and index lookups invert
/// them with `Inverse(value)`, so both a table page and an index leaf can be
/// synthesized on demand without materializing 2^26 rows.
///
/// The four round functions are precomputed at construction into one
/// table of 4 * 2^(bits/2) `uint32_t` entries, so `Permute` and `Inverse`
/// are four lookups each: 8 KiB at 18 bits, 128 KiB at the paper's 26 bits
/// and 1 MiB at the 32-bit cap. The cap exists to bound that table.
class FeistelPermutation {
 public:
  static constexpr int kMaxBits = 32;

  /// `bits` must be even and in [2, kMaxBits]; `seed` selects the
  /// permutation.
  FeistelPermutation(int bits, uint64_t seed);

  /// Domain size 2^bits.
  uint64_t size() const { return uint64_t{1} << (2 * half_bits_); }

  /// Forward mapping; `x` must be < size().
  uint64_t Permute(uint64_t x) const {
    assert(x < size());
    uint32_t left = static_cast<uint32_t>(x >> half_bits_);
    uint32_t right = static_cast<uint32_t>(x) & half_mask_;
    for (int r = 0; r < kRounds; ++r) {
      const uint32_t next_right = left ^ Round(r, right);
      left = right;
      right = next_right;
    }
    return (uint64_t{left} << half_bits_) | right;
  }

  /// Inverse mapping: Inverse(Permute(x)) == x for all x < size().
  uint64_t Inverse(uint64_t y) const {
    assert(y < size());
    uint32_t left = static_cast<uint32_t>(y >> half_bits_);
    uint32_t right = static_cast<uint32_t>(y) & half_mask_;
    for (int r = kRounds - 1; r >= 0; --r) {
      const uint32_t prev_left = right ^ Round(r, left);
      right = left;
      left = prev_left;
    }
    return (uint64_t{left} << half_bits_) | right;
  }

 private:
  static constexpr int kRounds = 4;

  uint32_t Round(int round, uint32_t half) const {
    return rounds_[(static_cast<size_t>(round) << half_bits_) | half];
  }

  int half_bits_;
  uint32_t half_mask_;
  /// Round r's value for half h at index (r << half_bits_) | h.
  std::vector<uint32_t> rounds_;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_COMMON_PERMUTATION_H_

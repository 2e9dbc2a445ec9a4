#include "common/permutation.h"

#include <cassert>

#include "common/rng.h"

namespace robustmap {

FeistelPermutation::FeistelPermutation(int bits, uint64_t seed)
    : half_bits_(bits / 2),
      half_mask_(static_cast<uint32_t>((uint64_t{1} << (bits / 2)) - 1)) {
  assert(bits >= 2 && bits <= kMaxBits && bits % 2 == 0);
  Rng rng(seed ^ 0x5ca1ab1e5ca1ab1eULL);
  const uint64_t halves = uint64_t{1} << half_bits_;
  rounds_.resize(kRounds * halves);
  for (int r = 0; r < kRounds; ++r) {
    const uint64_t key = rng.Next();
    uint32_t* round = rounds_.data() + r * halves;
    for (uint64_t h = 0; h < halves; ++h) {
      round[h] = static_cast<uint32_t>(Mix64(h ^ key)) & half_mask_;
    }
  }
}

}  // namespace robustmap

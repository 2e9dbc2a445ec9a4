#include "common/permutation.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"

namespace robustmap {
namespace {

// Property sweep: bijectivity over the full domain for several sizes.
class PermutationBijectionTest : public ::testing::TestWithParam<int> {};

TEST_P(PermutationBijectionTest, IsBijective) {
  int bits = GetParam();
  FeistelPermutation perm(bits, 99);
  uint64_t n = uint64_t{1} << bits;
  std::vector<bool> seen(n, false);
  for (uint64_t x = 0; x < n; ++x) {
    uint64_t y = perm.Permute(x);
    ASSERT_LT(y, n);
    ASSERT_FALSE(seen[y]) << "collision at " << x;
    seen[y] = true;
  }
}

TEST_P(PermutationBijectionTest, InverseRoundTrips) {
  int bits = GetParam();
  FeistelPermutation perm(bits, 7);
  uint64_t n = uint64_t{1} << bits;
  for (uint64_t x = 0; x < n; ++x) {
    ASSERT_EQ(perm.Inverse(perm.Permute(x)), x);
    ASSERT_EQ(perm.Permute(perm.Inverse(x)), x);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PermutationBijectionTest,
                         ::testing::Values(2, 4, 8, 10, 12, 14));

TEST(PermutationTest, SeedsProduceDifferentPermutations) {
  FeistelPermutation a(12, 1), b(12, 2);
  int same = 0;
  for (uint64_t x = 0; x < 4096; ++x) {
    if (a.Permute(x) == b.Permute(x)) ++same;
  }
  EXPECT_LT(same, 40);  // ~1/4096 expected collisions per point
}

TEST(PermutationTest, LooksScrambled) {
  FeistelPermutation perm(16, 5);
  // No long identity runs.
  int identity = 0;
  for (uint64_t x = 0; x < 65536; ++x) {
    if (perm.Permute(x) == x) ++identity;
  }
  EXPECT_LT(identity, 20);
}

// The permutation's definition, evaluated directly: four Feistel rounds
// whose round function is the SplitMix64 finalizer of `half ^ key`, masked
// to the half width, with keys drawn from the seed. The precomputed round
// table must reproduce it exactly, forward and backward.
class ReferenceFeistel {
 public:
  ReferenceFeistel(int bits, uint64_t seed)
      : half_bits_(bits / 2), half_mask_((uint64_t{1} << (bits / 2)) - 1) {
    Rng rng(seed ^ 0x5ca1ab1e5ca1ab1eULL);
    for (uint64_t& k : keys_) k = rng.Next();
  }

  uint64_t Permute(uint64_t x) const {
    uint64_t left = x >> half_bits_;
    uint64_t right = x & half_mask_;
    for (int r = 0; r < 4; ++r) {
      const uint64_t next_right = left ^ Round(r, right);
      left = right;
      right = next_right;
    }
    return (left << half_bits_) | right;
  }

  uint64_t Inverse(uint64_t y) const {
    uint64_t left = y >> half_bits_;
    uint64_t right = y & half_mask_;
    for (int r = 3; r >= 0; --r) {
      const uint64_t prev_left = right ^ Round(r, left);
      right = left;
      left = prev_left;
    }
    return (left << half_bits_) | right;
  }

 private:
  static uint64_t SplitMix64Finalizer(uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  uint64_t Round(int r, uint64_t half) const {
    return SplitMix64Finalizer(half ^ keys_[r]) & half_mask_;
  }

  int half_bits_;
  uint64_t half_mask_;
  uint64_t keys_[4] = {};
};

TEST(PermutationTest, TableMatchesDefinitionAtEveryWidth) {
  for (int bits = 2; bits <= FeistelPermutation::kMaxBits; bits += 2) {
    SCOPED_TRACE(bits);
    const uint64_t seed = 1000 + static_cast<uint64_t>(bits);
    FeistelPermutation perm(bits, seed);
    ReferenceFeistel ref(bits, seed);
    const uint64_t n = uint64_t{1} << bits;
    ASSERT_EQ(perm.size(), n);
    Rng points(static_cast<uint64_t>(bits));
    for (int i = 0; i < 512; ++i) {
      // Both ends of the domain, then uniform samples.
      const uint64_t x = i < 2 ? (i == 0 ? 0 : n - 1) : points.NextBounded(n);
      ASSERT_EQ(perm.Permute(x), ref.Permute(x)) << "x=" << x;
      ASSERT_EQ(perm.Inverse(x), ref.Inverse(x)) << "x=" << x;
    }
  }
}

TEST(PermutationTest, LargeDomainRoundTrip) {
  FeistelPermutation perm(26, 42);
  for (uint64_t x = 0; x < (1u << 26); x += 104729) {
    ASSERT_EQ(perm.Inverse(perm.Permute(x)), x);
  }
}

TEST(PermutationTest, CapDomainRoundTrip) {
  FeistelPermutation perm(FeistelPermutation::kMaxBits, 42);
  for (uint64_t x = 0; x < perm.size(); x += 2654435761u) {
    ASSERT_LT(perm.Permute(x), perm.size());
    ASSERT_EQ(perm.Inverse(perm.Permute(x)), x);
  }
}

}  // namespace
}  // namespace robustmap

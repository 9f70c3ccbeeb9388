// The per-lane ops of the batched Jacobi sweep (abs, le_mask, blend),
// checked lane by lane against their scalar operations for whichever simd
// backend the including translation unit compiles. simd_test.cpp runs them
// on the test TU's backend, simd_kernel_ops_test.cpp on the kernel TUs'
// (AVX2 where the host has it). The anonymous namespace gives each TU its
// own copy, built against its own backend.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "core/simd.hpp"

namespace {

void check_abs_le_mask_and_blend() {
  namespace simd = stf::core::simd;
  constexpr std::size_t kL = simd::kLanes;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double lhs[8] = {1.0, 2.0, -0.0, nan, 3.0, -inf, -1.0, 0.0};
  const double rhs[8] = {2.0, 2.0, 0.0, 1.0, nan, 0.5, -2.0, -0.0};
  for (std::size_t base = 0; base + kL <= 8; base += kL) {
    const simd::VecD a = simd::load(lhs + base);
    const simd::VecD b = simd::load(rhs + base);
    double got[kL];
    simd::store(got, simd::abs(a));
    for (std::size_t j = 0; j < kL; ++j)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[j]),
                std::bit_cast<std::uint64_t>(std::abs(lhs[base + j])))
          << simd::backend_name() << " abs, lane " << base + j;
    const unsigned le = simd::le_mask(a, b);
    for (std::size_t j = 0; j < kL; ++j)
      EXPECT_EQ((le >> j) & 1u, lhs[base + j] <= rhs[base + j] ? 1u : 0u)
          << simd::backend_name() << " le_mask, lane " << base + j;
    EXPECT_EQ(le >> kL, 0u) << simd::backend_name();
    for (unsigned mask = 0; mask < (1u << kL); ++mask) {
      simd::store(got, simd::blend(mask, a, b));
      for (std::size_t j = 0; j < kL; ++j) {
        const double want = (mask >> j) & 1u ? lhs[base + j] : rhs[base + j];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[j]),
                  std::bit_cast<std::uint64_t>(want))
            << simd::backend_name() << " blend mask " << mask << ", lane "
            << base + j;
      }
    }
  }
}

}  // namespace

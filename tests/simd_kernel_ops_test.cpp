// The lane ops of the batched Jacobi sweep on the kernel TUs' simd backend.
// tests/CMakeLists.txt compiles this file with the kernel TUs' options, so
// in an AVX2 build it checks the AVX2 backend that la::pinv_lanes runs on,
// while simd_test.cpp checks the test TU's backend (SSE2 on x86-64).
#include "simd_lane_ops_checks.hpp"

namespace {

TEST(SimdKernelPrimitives, AbsLeMaskAndBlendMatchScalarOps) {
  check_abs_le_mask_and_blend();
}

}  // namespace

// Batched pseudoinverse: one tall matrix per vector lane.
//
// The GA's Eq. 10 objective factors one signature sensitivity A_s per
// candidate stimulus (paper Eq. 9, A = A_p * pinv(A_s)), and each one-sided
// Jacobi Gram step of la::pinv is a short chain of dependent sums that
// leaves most of a vector unit idle. pinv_lanes() factors several of a
// generation's matrices side by side instead, one per lane, the way GPU
// libraries batch small Jacobi SVDs; la::pinv stays the scalar reference
// it matches bit for bit.
#pragma once

#include <cstddef>
#include <span>

#include "linalg/matrix.hpp"

namespace stf::la {

/// Matrices pinv_lanes() factors per pass: the vector width of its kernel,
/// or 1 when this build has no vector backend or the runtime STF_SIMD
/// switch is off.
std::size_t pinv_lane_width();

/// pinv(a[i], rcond) into out[i] for every i, bit for bit (out[i] takes
/// a[i]'s transposed shape). Same-shape tall matrices run
/// pinv_lane_width() at a time, one matrix per vector lane, held
/// column-major and lane-interleaved: each lane does pinv()'s one-sided
/// Jacobi sweeps in their order, a lane whose column pair needs no rotation
/// keeps its columns by blend, and sweeps go on until every lane has
/// converged (a converged lane's extra sweeps change none of its bits) or
/// to pinv()'s sweep cap. The singular values, U, the descending sort and
/// V * Sigma^+ * U^T follow, each lane doing pinv()'s operations in their
/// order. Wide matrices, mixed shapes, a group of one and a width of 1
/// take pinv() per matrix. Scratch comes from the per-thread capture
/// arena.
void pinv_lanes(std::span<const Matrix> a, std::span<Matrix> out,
                double rcond = 1e-12);

}  // namespace stf::la

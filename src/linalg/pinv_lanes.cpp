// One-sided Jacobi sweeps of several matrices in vector lanes (see
// pinv_lanes.hpp). This is a kernel TU: it gets the host's vector ISA and
// -ffp-contract=off, so each lane rounds exactly as svd.cpp's scalar sweep
// does.
#include "linalg/pinv_lanes.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/arena.hpp"
#include "core/contracts.hpp"
#include "core/simd.hpp"
#include "core/telemetry.hpp"
#include "linalg/svd.hpp"

namespace stf::la {

namespace {

namespace simd = stf::core::simd;

constexpr std::size_t kL = simd::kLanes;

// W (m x n) and V (n x n) of kL matrices, column-major and lane-interleaved:
// element (i, j) of lane d sits at [(j * rows + i) * kL + d], so the column
// pair of a rotation streams through contiguous vectors.
//
// svd_tall's sweeps, with each lane running the scalar operations in their
// order. A lane whose pair passes the skip test keeps its W and V columns by
// blend; rotating it with c = 1, s = 0 instead could flip a signed zero.
// A sweep that rotates no lane ends the loop, so a lane that converged
// earlier sits through sweeps whose every pair it skips: they change none
// of its bits, and it ends where svd_tall ends.
void jacobi_sweeps(double* w, double* v, std::size_t m, std::size_t n) {
  constexpr unsigned kAll = (1u << kL) - 1;
  const simd::VecD eps =
      simd::broadcast(std::numeric_limits<double>::epsilon());
  const simd::VecD zero = simd::broadcast(0.0);
  const simd::VecD one = simd::broadcast(1.0);
  const simd::VecD minus_one = simd::broadcast(-1.0);
  const simd::VecD two = simd::broadcast(2.0);
  const auto rotate = [](double* xp, double* xq, std::size_t rows,
                         simd::VecD c, simd::VecD s, unsigned keep) {
    for (std::size_t i = 0; i < rows * kL; i += kL) {
      const simd::VecD p = simd::load(xp + i);
      const simd::VecD q = simd::load(xq + i);
      simd::store(xp + i, simd::blend(keep, p, c * p - s * q));
      simd::store(xq + i, simd::blend(keep, q, s * p + c * q));
    }
  };
  for (int sweep = 0; sweep < detail::kMaxJacobiSweeps; ++sweep) {
    unsigned rotated = 0;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double* wp = w + p * m * kL;
        double* wq = w + q * m * kL;
        simd::VecD app = zero, aqq = zero, apq = zero;
        for (std::size_t i = 0; i < m * kL; i += kL) {
          const simd::VecD x = simd::load(wp + i);
          const simd::VecD y = simd::load(wq + i);
          app = app + x * x;
          aqq = aqq + y * y;
          apq = apq + x * y;
        }
        const unsigned skip =
            simd::le_mask(simd::abs(apq), eps * simd::sqrt(app * aqq));
        if (skip == kAll) continue;
        rotated |= ~skip & kAll;
        const simd::VecD tau = (aqq - app) / (two * apq);
        const simd::VecD t =
            simd::blend(simd::le_mask(zero, tau), one, minus_one) /
            (simd::abs(tau) + simd::sqrt(one + tau * tau));
        const simd::VecD c = one / simd::sqrt(one + t * t);
        const simd::VecD s = c * t;
        rotate(wp, wq, m, c, s, skip);
        rotate(v + p * n * kL, v + q * n * kL, n, c, s, skip);
      }
    }
    if (rotated == 0) return;
  }
}

// svd_tall's tail and pinv's product on the swept W and V, every lane doing
// their operations in their order. W's column norms are the singular values
// and its normalized columns U (a zero column leaves U zero). Each lane
// sorts its columns by descending singular value with svd_tall's std::sort
// and scales V's by Sigma^+, and pinv = (V * Sigma^+) * U^T sums over k in
// Matrix's product order. That product skips V * Sigma^+'s zero entries;
// the lanes add them, which changes no bit: U is finite (a zero column of
// W leaves U's column zero), so such a term is +-0, and a sum that starts
// at +0 never becomes -0. Lanes 0 .. out.size() - 1 land in out.
void pinv_tail(const double* w, const double* v, std::size_t m,
               std::size_t n, double rcond, std::span<Matrix> out,
               stf::core::Arena& arena) {
  const simd::VecD zero = simd::broadcast(0.0);
  stf::core::ArenaVector<double> sv(
      n * kL, 0.0, stf::core::ArenaAllocator<double>(&arena));
  stf::core::ArenaVector<double> u(
      m * n * kL, 0.0, stf::core::ArenaAllocator<double>(&arena));
  for (std::size_t j = 0; j < n; ++j) {
    const double* wj = w + j * m * kL;
    simd::VecD norm = zero;
    for (std::size_t i = 0; i < m * kL; i += kL) {
      const simd::VecD x = simd::load(wj + i);
      norm = norm + x * x;
    }
    norm = simd::sqrt(norm);
    simd::store(sv.data() + j * kL, norm);
    // norm > 0, false for NaN.
    const unsigned positive =
        simd::le_mask(zero, norm) & ~simd::le_mask(norm, zero);
    for (std::size_t i = 0; i < m * kL; i += kL)
      simd::store(u.data() + j * m * kL + i,
                  simd::blend(positive, simd::load(wj + i) / norm, zero));
  }

  // Per lane: the column order, V * Sigma^+ and U^T, permuted into it.
  stf::core::ArenaVector<double> vs(
      n * n * kL, 0.0, stf::core::ArenaAllocator<double>(&arena));
  stf::core::ArenaVector<double> ut(
      n * m * kL, 0.0, stf::core::ArenaAllocator<double>(&arena));
  stf::core::ArenaVector<std::size_t> order(
      n, 0, stf::core::ArenaAllocator<std::size_t>(&arena));
  for (std::size_t d = 0; d < out.size(); ++d) {
    const auto s = [&](std::size_t j) { return sv[j * kL + d]; };
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t i, std::size_t j) { return s(i) > s(j); });
    const double cutoff = rcond * s(order[0]);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t src = order[k];
      const double inv = s(src) > cutoff ? 1.0 / s(src) : 0.0;
      for (std::size_t i = 0; i < n; ++i)
        vs[(i * n + k) * kL + d] = v[(src * n + i) * kL + d] * inv;
      for (std::size_t c = 0; c < m; ++c)
        ut[(k * m + c) * kL + d] = u[(src * m + c) * kL + d];
    }
    if (out[d].rows() != n || out[d].cols() != m) out[d] = Matrix(n, m);
  }

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < m; ++c) {
      simd::VecD acc = zero;
      for (std::size_t k = 0; k < n; ++k)
        acc = acc + simd::load(vs.data() + (i * n + k) * kL) *
                        simd::load(ut.data() + (k * m + c) * kL);
      alignas(simd::kAlignment) double lane[kL];
      simd::store(lane, acc);
      for (std::size_t d = 0; d < out.size(); ++d)
        out[d].data()[i * m + c] = lane[d];
    }
  }
}

// pinv() of 2 to kL same-shape tall matrices in one pass. Spare lanes
// repeat matrix 0, so they converge with it and never add a sweep.
void pinv_group(std::span<const Matrix> a, std::span<Matrix> out,
                double rcond) {
  STF_TRACE_SPAN("linalg.pinv_lanes");
  STF_COUNT("linalg.pinv_lane_groups");
  const std::size_t g = a.size();
  const std::size_t m = a[0].rows();
  const std::size_t n = a[0].cols();
  stf::core::Arena& arena = stf::core::capture_arena();
  const stf::core::ArenaScope scope(arena);
  stf::core::ArenaVector<double> w(
      m * n * kL, 0.0, stf::core::ArenaAllocator<double>(&arena));
  stf::core::ArenaVector<double> v(
      n * n * kL, 0.0, stf::core::ArenaAllocator<double>(&arena));
  for (std::size_t d = 0; d < kL; ++d) {
    const double* x = a[d < g ? d : 0].data();
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < m; ++i)
        w[(j * m + i) * kL + d] = x[i * n + j];
      v[(j * n + j) * kL + d] = 1.0;
    }
  }
  jacobi_sweeps(w.data(), v.data(), m, n);
  pinv_tail(w.data(), v.data(), m, n, rcond, out, arena);
}

}  // namespace

std::size_t pinv_lane_width() { return simd::enabled() ? kL : 1; }

void pinv_lanes(std::span<const Matrix> a, std::span<Matrix> out,
                double rcond) {
  STF_REQUIRE(out.size() == a.size(), "pinv_lanes: one output per matrix");
  STF_REQUIRE(std::isfinite(rcond) && rcond >= 0.0,
              "pinv: rcond must be finite and >= 0");
  const bool same_tall_shape =
      !a.empty() && !a[0].empty() && a[0].rows() >= a[0].cols() &&
      std::all_of(a.begin(), a.end(), [&](const Matrix& x) {
        return x.rows() == a[0].rows() && x.cols() == a[0].cols();
      });
  if (pinv_lane_width() == 1 || a.size() < 2 || !same_tall_shape) {
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = pinv(a[i], rcond);
    return;
  }
  for (const Matrix& x : a)
    STF_ASSERT_FINITE("svd: non-finite input matrix", x.data(), x.size());
  for (std::size_t g0 = 0; g0 < a.size(); g0 += kL) {
    const std::size_t g = std::min(kL, a.size() - g0);
    if (g == 1)
      out[g0] = pinv(a[g0], rcond);
    else
      pinv_group(a.subspan(g0, g), out.subspan(g0, g), rcond);
  }
}

}  // namespace stf::la

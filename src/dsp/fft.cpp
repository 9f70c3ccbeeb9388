#include "dsp/fft.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numbers>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/annotations.hpp"
#include "core/arena.hpp"
#include "core/contracts.hpp"
#include "core/simd.hpp"
#include "core/telemetry.hpp"

namespace stf::dsp {

namespace {

namespace simd = stf::core::simd;

constexpr double kTwoPi = 2.0 * std::numbers::pi;

// ---------------------------------------------------------------------------
// Plans: per-size precomputes shared by every transform of that size. A GA
// run acquires thousands of same-length signatures, so the twiddle tables
// and bit-reversal permutation are computed once and cached process-wide
// (see plan_cache below). Plans are immutable after construction and
// therefore safe to share across threads.
// ---------------------------------------------------------------------------

// Radix-2 precomputes: bit-reversal permutation and forward twiddles packed
// per stage -- stage `len` owns the len/2 entries w[j] = exp(-j 2 pi j /
// len) starting at offset len/2 - 1 (n - 1 entries total), so every
// butterfly loop walks its twiddles at unit stride. Twiddles live in
// lane-aligned storage so cached plans never push the vector butterfly onto
// split-cache-line loads.
struct Radix2Plan {
  explicit Radix2Plan(std::size_t n) : n(n), bitrev(n), packed(n - 1) {
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      bitrev[i] = j;
    }
    // One master table of exp(-j 2 pi j / n); each stage subsamples it, so
    // packed entries stay bit-identical to the direct per-stage formula.
    std::vector<cplx> master(n / 2);
    for (std::size_t j = 0; j < n / 2; ++j) {
      const double ang = -kTwoPi * static_cast<double>(j) /
                         static_cast<double>(n);
      master[j] = cplx(std::cos(ang), std::sin(ang));
    }
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t half = len / 2;
      const std::size_t stride = n / len;
      for (std::size_t j = 0; j < half; ++j)
        packed[half - 1 + j] = master[j * stride];
    }
  }

  std::size_t n;
  std::vector<std::size_t> bitrev;
  simd::AlignedVector<cplx> packed;
};

// In-place iterative Cooley-Tukey over a precomputed plan, with the twiddle
// product written out in real arithmetic to avoid the library
// complex-multiply (whose NaN-recovery guard the butterfly can never need:
// twiddles are finite by construction). This is the scalar reference path;
// the vector kernel below must match it bit for bit on finite data.
void fft_radix2_impl(cplx* a, const Radix2Plan& plan) {
  const std::size_t n = plan.n;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const cplx* w = plan.packed.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      cplx* lo = a + i;
      cplx* hi = lo + half;
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = w[k].real();
        const double wi = w[k].imag();
        const double xr = hi[k].real();
        const double xi = hi[k].imag();
        const cplx v(xr * wr - xi * wi, xr * wi + xi * wr);
        const cplx u = lo[k];
        lo[k] = u + v;
        hi[k] = u - v;
      }
    }
  }
}

// Vector butterfly: identical stage/element order to the scalar reference,
// vectorized ACROSS the independent k-butterflies of one block. Each lane
// performs exactly the scalar element's operations (products, one
// subtraction/addition pair via addsub, then u+v / u-v), so finite results
// are bit-identical; kernel TUs compile with -ffp-contract=off so no FMA
// can sneak a different rounding in.
void fft_radix2_vec(cplx* a, const Radix2Plan& plan) {
  const std::size_t n = plan.n;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) std::swap(a[i], a[j]);
  }
  // Complexes per vector register (interleaved re/im pairs fill lanes).
  constexpr std::size_t kC = simd::kLanes / 2;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const cplx* w = plan.packed.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      cplx* lo = a + i;
      cplx* hi = lo + half;
      std::size_t k = 0;
      for (; k + kC <= half; k += kC) {
        const simd::VecD wv =
            simd::load(reinterpret_cast<const double*>(w + k));
        const simd::VecD x =
            simd::load(reinterpret_cast<const double*>(hi + k));
        const simd::VecD v = simd::complex_mul(x, wv);
        const simd::VecD u =
            simd::load(reinterpret_cast<const double*>(lo + k));
        simd::store(reinterpret_cast<double*>(lo + k), u + v);
        simd::store(reinterpret_cast<double*>(hi + k), u - v);
      }
      for (; k < half; ++k) {
        const double wr = w[k].real();
        const double wi = w[k].imag();
        const double xr = hi[k].real();
        const double xi = hi[k].imag();
        const cplx v(xr * wr - xi * wi, xr * wi + xi * wr);
        const cplx u = lo[k];
        lo[k] = u + v;
        hi[k] = u - v;
      }
    }
  }
}

// Forward transforms of simd::kLanes signals, one per lane, in split
// lane-interleaved planes (lane d's element j at re/im[j * kLanes + d]).
// Every lane runs fft_radix2_impl's swaps, products and sums in their
// order with the twiddle broadcast across lanes, so each lane's spectrum is
// bit-identical to the scalar reference on its signal.
void fft_radix2_lanes(double* re, double* im, const Radix2Plan& plan) {
  constexpr std::size_t kL = simd::kLanes;
  const std::size_t n = plan.n;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) {
      std::swap_ranges(re + i * kL, re + (i + 1) * kL, re + j * kL);
      std::swap_ranges(im + i * kL, im + (i + 1) * kL, im + j * kL);
    }
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const cplx* w = plan.packed.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      double* lo_re = re + i * kL;
      double* lo_im = im + i * kL;
      double* hi_re = lo_re + half * kL;
      double* hi_im = lo_im + half * kL;
      for (std::size_t k = 0; k < half; ++k) {
        const std::size_t o = k * kL;
        const simd::VecD wr = simd::broadcast(w[k].real());
        const simd::VecD wi = simd::broadcast(w[k].imag());
        const simd::VecD xr = simd::load(hi_re + o);
        const simd::VecD xi = simd::load(hi_im + o);
        const simd::VecD vr = xr * wr - xi * wi;
        const simd::VecD vi = xr * wi + xi * wr;
        const simd::VecD ur = simd::load(lo_re + o);
        const simd::VecD ui = simd::load(lo_im + o);
        simd::store(lo_re + o, ur + vr);
        simd::store(lo_im + o, ui + vi);
        simd::store(hi_re + o, ur - vr);
        simd::store(hi_im + o, ui - vi);
      }
    }
  }
}

void fft_radix2(cplx* a, const Radix2Plan& plan) {
  if constexpr (simd::kLanes >= 2) {
    if (simd::enabled()) {
      fft_radix2_vec(a, plan);
      return;
    }
  }
  fft_radix2_impl(a, plan);
}

// ---------------------------------------------------------------------------
// Process-wide plan cache: one slot per power-of-two size, indexed by the
// exponent, so it holds at most one plan per bit of std::size_t and needs
// no eviction. Lookups take a mutex (cheap next to any FFT); plans are
// handed out as shared_ptr-to-const so a concurrent clear() cannot pull a
// plan out from under a running transform.
// ---------------------------------------------------------------------------
class PlanCache {
 public:
  std::shared_ptr<const Radix2Plan> radix2(std::size_t n)
      STF_EXCLUDES(mutex_) {
    const core::LockGuard lock(mutex_);
    std::shared_ptr<const Radix2Plan>& slot = plans_[std::countr_zero(n)];
    if (slot == nullptr) {
      STF_COUNT("fft.plan_cache_miss");
      slot = std::make_shared<const Radix2Plan>(n);
    } else {
      STF_COUNT("fft.plan_cache_hit");
    }
    return slot;
  }

  std::size_t size() const STF_EXCLUDES(mutex_) {
    const core::LockGuard lock(mutex_);
    return static_cast<std::size_t>(
        std::count_if(plans_.begin(), plans_.end(),
                      [](const auto& plan) { return plan != nullptr; }));
  }

  void clear() STF_EXCLUDES(mutex_) {
    const core::LockGuard lock(mutex_);
    for (auto& plan : plans_) plan.reset();
  }

 private:
  mutable core::Mutex mutex_;
  std::array<std::shared_ptr<const Radix2Plan>,
             std::numeric_limits<std::size_t>::digits>
      plans_ STF_GUARDED_BY(mutex_);
};

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

}  // namespace

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::size_t fft_plan_cache_size() { return plan_cache().size(); }

void fft_plan_cache_clear() { plan_cache().clear(); }

void fft_pow2_inplace(std::span<cplx> x) {
  STF_REQUIRE(is_pow2(x.size()),
              "fft_pow2_inplace: length must be a power of two");
  STF_COUNT("fft.transforms");
  const auto plan = plan_cache().radix2(x.size());
  fft_radix2(x.data(), *plan);
}

std::size_t fft_lane_width() { return simd::enabled() ? simd::kLanes : 1; }

void fft_pow2_lanes(std::span<double> re, std::span<double> im,
                    std::size_t lanes) {
  STF_REQUIRE(lanes >= 1, "fft_pow2_lanes: lanes must be >= 1");
  STF_REQUIRE(re.size() == im.size() && re.size() % lanes == 0,
              "fft_pow2_lanes: re and im must hold lanes x n values");
  const std::size_t n = re.size() / lanes;
  STF_REQUIRE(is_pow2(n), "fft_pow2_lanes: length must be a power of two");
  STF_COUNT("fft.transforms", static_cast<std::uint64_t>(lanes));
  const auto plan = plan_cache().radix2(n);
  if (lanes == simd::kLanes && lanes > 1 && simd::enabled()) {
    fft_radix2_lanes(re.data(), im.data(), *plan);
    return;
  }
  core::Arena& arena = core::capture_arena();
  const core::ArenaScope scope(arena);
  core::ArenaVector<cplx> x(n, cplx{}, core::ArenaAllocator<cplx>(&arena));
  for (std::size_t d = 0; d < lanes; ++d) {
    for (std::size_t j = 0; j < n; ++j)
      x[j] = cplx(re[j * lanes + d], im[j * lanes + d]);
    fft_radix2(x.data(), *plan);
    for (std::size_t j = 0; j < n; ++j) {
      re[j * lanes + d] = x[j].real();
      im[j * lanes + d] = x[j].imag();
    }
  }
}

std::size_t fft_plan_table_alignment() { return simd::kAlignment; }

bool fft_plan_tables_aligned(std::size_t n) {
  STF_REQUIRE(is_pow2(n),
              "fft_plan_tables_aligned: n must be a power of two");
  const auto plan = plan_cache().radix2(n);
  return simd::is_aligned(plan->packed.data(), simd::kAlignment);
}

// stf-analyze: allow(api-contract) -- defined for every input, even empty.
std::vector<cplx> dft_reference(const std::vector<cplx>& x) {
  const std::size_t n = x.size();
  std::vector<cplx> out(n, cplx{});
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{};
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -kTwoPi * static_cast<double>(k) *
                         static_cast<double>(t) / static_cast<double>(n);
      acc += x[t] * cplx(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

}  // namespace stf::dsp

#include "dsp/fft.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <span>
#include <stdexcept>
#include <unordered_map>
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
// run acquires thousands of same-length signatures, so the twiddle tables,
// bit-reversal permutation and Bluestein chirp/convolution spectra are
// computed once and cached process-wide (see plan_cache below). Plans are
// immutable after construction and therefore safe to share across threads.
// ---------------------------------------------------------------------------

// Radix-2 precomputes: bit-reversal permutation and forward twiddles packed
// per stage -- stage `len` owns the len/2 entries w[j] = exp(-j 2 pi j /
// len) starting at offset len/2 - 1 (n - 1 entries total), so every
// butterfly loop walks its twiddles at unit stride. The inverse transform
// conjugates on the fly. Twiddles live in lane-aligned storage so cached
// plans never push the vector butterfly onto split-cache-line loads.
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

// In-place iterative Cooley-Tukey over a precomputed plan. The direction is
// a template parameter so the conjugation choice is hoisted out of the
// butterfly, and the twiddle product is written out in real arithmetic to
// avoid the library complex-multiply (whose NaN-recovery guard the
// butterfly can never need: twiddles are finite by construction). This is
// the scalar reference path; the vector kernel below must match it bit for
// bit on finite data.
template <bool Inverse>
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
        const double wi = Inverse ? -w[k].imag() : w[k].imag();
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
template <bool Inverse>
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
        simd::VecD wv = simd::load(reinterpret_cast<const double*>(w + k));
        if constexpr (Inverse) wv = simd::conj_pairs(wv);
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
        const double wi = Inverse ? -w[k].imag() : w[k].imag();
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
// Every lane runs fft_radix2_impl<false>'s swaps, products and sums in
// their order with the twiddle broadcast across lanes, so each lane's
// spectrum is bit-identical to the scalar reference on its signal.
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

// sign = -1 forward, +1 inverse (without normalization).
void fft_radix2(cplx* a, const Radix2Plan& plan, int sign) {
  if constexpr (simd::kLanes >= 2) {
    if (simd::enabled()) {
      if (sign < 0)
        fft_radix2_vec<false>(a, plan);
      else
        fft_radix2_vec<true>(a, plan);
      return;
    }
  }
  if (sign < 0)
    fft_radix2_impl<false>(a, plan);
  else
    fft_radix2_impl<true>(a, plan);
}

// Bluestein precomputes for one (n, sign): the chirp w[k] = exp(sign * j *
// pi * k^2 / n) and the forward spectrum of the chirp-conjugate convolution
// kernel, ready to multiply into each transform.
struct BluesteinPlan {
  BluesteinPlan(std::size_t n, int sign,
                std::shared_ptr<const Radix2Plan> radix2)
      : n(n),
        m(radix2->n),
        inv_m(1.0 / static_cast<double>(radix2->n)),
        chirp(n),
        kernel_spectrum(radix2->n, cplx{}),
        conv_plan(std::move(radix2)) {
    for (std::size_t k = 0; k < n; ++k) {
      // k^2 mod 2n avoids precision loss for large k.
      const double kk = static_cast<double>((k * k) % (2 * n));
      const double ang = static_cast<double>(sign) * std::numbers::pi * kk /
                         static_cast<double>(n);
      chirp[k] = cplx(std::cos(ang), std::sin(ang));
    }
    kernel_spectrum[0] = std::conj(chirp[0]);
    for (std::size_t k = 1; k < n; ++k)
      kernel_spectrum[k] = kernel_spectrum[m - k] = std::conj(chirp[k]);
    fft_radix2(kernel_spectrum.data(), *conv_plan, -1);
  }

  std::size_t n;
  std::size_t m;
  double inv_m;
  simd::AlignedVector<cplx> chirp;
  simd::AlignedVector<cplx> kernel_spectrum;
  std::shared_ptr<const Radix2Plan> conv_plan;
};

// ---------------------------------------------------------------------------
// Process-wide plan cache. Lookups take a mutex (cheap next to any FFT);
// plans are handed out as shared_ptr-to-const so a concurrent clear() or an
// LRU eviction cannot pull a plan out from under a running transform. The
// cache is capped: every entry carries a logical access tick and inserts
// past the capacity evict the least-recently-used plan first, so sweeping
// many capture lengths holds a bounded working set.
// ---------------------------------------------------------------------------
class PlanCache {
 public:
  std::shared_ptr<const Radix2Plan> radix2(std::size_t n)
      STF_EXCLUDES(mutex_) {
    const core::LockGuard lock(mutex_);
    return radix2_locked(n);
  }

  std::shared_ptr<const BluesteinPlan> bluestein(std::size_t n, int sign)
      STF_EXCLUDES(mutex_) {
    const core::LockGuard lock(mutex_);
    const std::size_t key = n * 2 + (sign > 0 ? 1 : 0);
    auto it = bluestein_.find(key);
    if (it == bluestein_.end()) {
      STF_COUNT("fft.plan_cache_miss");
      // Build before evicting: the plan also touches its radix-2 conv plan,
      // which must not be the eviction victim picked for this insert. The
      // BluesteinPlan holds the conv plan by shared_ptr, so even a later
      // eviction of that radix-2 entry cannot invalidate it.
      auto plan = std::make_shared<const BluesteinPlan>(
          n, sign, radix2_locked(next_pow2(2 * n + 1)));
      make_room_locked();
      it = bluestein_.emplace(key, Entry<BluesteinPlan>{std::move(plan), 0})
               .first;
    } else {
      STF_COUNT("fft.plan_cache_hit");
    }
    it->second.tick = ++tick_;
    return it->second.plan;
  }

  std::size_t size() const STF_EXCLUDES(mutex_) {
    const core::LockGuard lock(mutex_);
    return radix2_.size() + bluestein_.size();
  }

  void clear() STF_EXCLUDES(mutex_) {
    const core::LockGuard lock(mutex_);
    radix2_.clear();
    bluestein_.clear();
  }

  std::size_t capacity() const STF_EXCLUDES(mutex_) {
    const core::LockGuard lock(mutex_);
    return capacity_;
  }

  void set_capacity(std::size_t cap) STF_EXCLUDES(mutex_) {
    const core::LockGuard lock(mutex_);
    capacity_ = std::max<std::size_t>(1, cap);
    while (radix2_.size() + bluestein_.size() > capacity_) evict_lru_locked();
  }

 private:
  template <class Plan>
  struct Entry {
    std::shared_ptr<const Plan> plan;
    std::uint64_t tick = 0;  // last access; smallest tick is the LRU victim
  };

  std::shared_ptr<const Radix2Plan> radix2_locked(std::size_t n)
      STF_REQUIRES(mutex_) {
    auto it = radix2_.find(n);
    if (it == radix2_.end()) {
      STF_COUNT("fft.plan_cache_miss");
      make_room_locked();
      it = radix2_
               .emplace(n, Entry<Radix2Plan>{
                               std::make_shared<const Radix2Plan>(n), 0})
               .first;
    } else {
      STF_COUNT("fft.plan_cache_hit");
    }
    it->second.tick = ++tick_;
    return it->second.plan;
  }

  /// Evict LRU entries until one insert fits under the capacity.
  void make_room_locked() STF_REQUIRES(mutex_) {
    while (radix2_.size() + bluestein_.size() >= capacity_) evict_lru_locked();
  }

  /// Drop the single entry (across both maps) with the oldest access tick.
  void evict_lru_locked() STF_REQUIRES(mutex_) {
    auto oldest_r = radix2_.end();
    for (auto it = radix2_.begin(); it != radix2_.end(); ++it)
      if (oldest_r == radix2_.end() || it->second.tick < oldest_r->second.tick)
        oldest_r = it;
    auto oldest_b = bluestein_.end();
    for (auto it = bluestein_.begin(); it != bluestein_.end(); ++it)
      if (oldest_b == bluestein_.end() ||
          it->second.tick < oldest_b->second.tick)
        oldest_b = it;
    if (oldest_r != radix2_.end() &&
        (oldest_b == bluestein_.end() ||
         oldest_r->second.tick <= oldest_b->second.tick))
      radix2_.erase(oldest_r);
    else if (oldest_b != bluestein_.end())
      bluestein_.erase(oldest_b);
    else
      return;  // both maps empty; nothing to evict
    STF_COUNT("fft.plan_cache_evictions");
  }

  mutable core::Mutex mutex_;
  std::size_t capacity_ STF_GUARDED_BY(mutex_) = 64;
  std::uint64_t tick_ STF_GUARDED_BY(mutex_) = 0;
  std::unordered_map<std::size_t, Entry<Radix2Plan>> radix2_
      STF_GUARDED_BY(mutex_);
  std::unordered_map<std::size_t, Entry<BluesteinPlan>> bluestein_
      STF_GUARDED_BY(mutex_);
};

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

// Per-thread scratch for the Bluestein convolution buffer: reused across
// calls so the hot loop's only allocation is the returned spectrum.
simd::AlignedVector<cplx>& bluestein_scratch() {
  thread_local simd::AlignedVector<cplx> scratch;
  return scratch;
}

// Elementwise complex product dst[k] = dst[k] * src[k] with the scalar
// operation order per element; used by the Bluestein chirp modulation and
// kernel-spectrum convolution. `src` is always finite (plan tables), so the
// vector path is bit-identical for finite dst.
void pointwise_mul(cplx* dst, const cplx* src, std::size_t count) {
  std::size_t k = 0;
  if constexpr (simd::kLanes >= 2) {
    constexpr std::size_t kC = simd::kLanes / 2;
    if (simd::enabled()) {
      for (; k + kC <= count; k += kC) {
        const simd::VecD d =
            simd::load(reinterpret_cast<const double*>(dst + k));
        const simd::VecD s =
            simd::load(reinterpret_cast<const double*>(src + k));
        simd::store(reinterpret_cast<double*>(dst + k),
                    simd::complex_mul(d, s));
      }
    }
  }
  for (; k < count; ++k) {
    const cplx d = dst[k];
    const cplx s = src[k];
    dst[k] = cplx(d.real() * s.real() - d.imag() * s.imag(),
                  d.real() * s.imag() + d.imag() * s.real());
  }
}

// Bluestein chirp-z transform for arbitrary N, built on the radix-2 kernel.
std::vector<cplx> bluestein(const std::vector<cplx>& x, int sign) {
  const std::size_t n = x.size();
  const auto plan = plan_cache().bluestein(n, sign);
  const std::size_t m = plan->m;

  simd::AlignedVector<cplx>& a = bluestein_scratch();
  a.assign(m, cplx{});
  for (std::size_t k = 0; k < n; ++k) a[k] = x[k];
  pointwise_mul(a.data(), plan->chirp.data(), n);

  fft_radix2(a.data(), *plan->conv_plan, -1);
  pointwise_mul(a.data(), plan->kernel_spectrum.data(), m);
  fft_radix2(a.data(), *plan->conv_plan, +1);

  std::vector<cplx> out(n);
  const double inv_m = plan->inv_m;
  for (std::size_t k = 0; k < n; ++k) out[k] = a[k] * inv_m;
  pointwise_mul(out.data(), plan->chirp.data(), n);
  return out;
}

std::vector<cplx> transform(const std::vector<cplx>& x, int sign) {
  STF_REQUIRE(!x.empty(), "fft: empty input");
  STF_COUNT("fft.transforms");
  if (is_pow2(x.size())) {
    const auto plan = plan_cache().radix2(x.size());
    std::vector<cplx> a = x;
    fft_radix2(a.data(), *plan, sign);
    return a;
  }
  return bluestein(x, sign);
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

std::size_t fft_plan_cache_capacity() { return plan_cache().capacity(); }

void fft_plan_cache_set_capacity(std::size_t capacity) {
  plan_cache().set_capacity(capacity);
}

std::vector<cplx> fft(const std::vector<cplx>& x) { return transform(x, -1); }

void fft_pow2_inplace(std::span<cplx> x) {
  STF_REQUIRE(is_pow2(x.size()),
              "fft_pow2_inplace: length must be a power of two");
  STF_COUNT("fft.transforms");
  const auto plan = plan_cache().radix2(x.size());
  fft_radix2(x.data(), *plan, -1);
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
    fft_radix2(x.data(), *plan, -1);
    for (std::size_t j = 0; j < n; ++j) {
      re[j * lanes + d] = x[j].real();
      im[j * lanes + d] = x[j].imag();
    }
  }
}

std::size_t fft_plan_table_alignment() { return simd::kAlignment; }

bool fft_plan_tables_aligned(std::size_t n) {
  STF_REQUIRE(n >= 1, "fft_plan_tables_aligned: n must be >= 1");
  if (is_pow2(n)) {
    const auto plan = plan_cache().radix2(n);
    return simd::is_aligned(plan->packed.data(), simd::kAlignment);
  }
  const auto plan = plan_cache().bluestein(n, -1);
  return simd::is_aligned(plan->chirp.data(), simd::kAlignment) &&
         simd::is_aligned(plan->kernel_spectrum.data(), simd::kAlignment) &&
         simd::is_aligned(plan->conv_plan->packed.data(), simd::kAlignment);
}

std::vector<cplx> ifft(const std::vector<cplx>& x) {
  std::vector<cplx> y = transform(x, +1);
  const double inv_n = 1.0 / static_cast<double>(y.size());
  for (auto& v : y) v *= inv_n;
  return y;
}

std::vector<cplx> fft_real(const std::vector<double>& x) {
  std::vector<cplx> c(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) c[i] = cplx(x[i], 0.0);
  return fft(c);
}

std::vector<double> magnitude(const std::vector<cplx>& x) {
  std::vector<double> m(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) m[i] = std::abs(x[i]);
  return m;
}

std::vector<double> fft_frequencies(std::size_t n, double fs) {
  std::vector<double> f(n);
  const double df = fs / static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto ks = static_cast<double>(k);
    f[k] = (k <= n / 2) ? ks * df : (ks - static_cast<double>(n)) * df;
  }
  return f;
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

// Explicit SIMD abstraction for the signature hot path.
//
// Every vector kernel in the repo is written against this one header: a
// fixed-width pack of doubles (VecD) with the handful of lane operations the
// DSP kernels need (arithmetic, IEEE sqrt/div, pair swaps for interleaved
// complex data, addsub for complex multiplies, strided loads
// and stores for device-interleaved buffers, and the absolute value,
// less-or-equal mask and per-lane blend that a batched Jacobi sweep needs
// to mask one lane's skipped rotation), and a pack of as many
// unsigned 64-bit integers (VecU64) for the random-number kernels (bitwise
// ops, wrapping subtract, constant shifts, exact conversion of 53-bit
// integers to double, a per-lane table lookup and a lane-wise less-than
// mask). The backend is selected at compile time from the target ISA:
//
//   AVX2  (4 lanes)  x86-64 translation units compiled with -mavx2
//   SSE2  (2 lanes)  any x86-64 translation unit
//   NEON  (2 lanes)  aarch64
//   scalar (1 lane)  everything else, and any build with SIGTEST_SIMD=OFF
//
// Raw intrinsics are confined to this header by the stf_analyze rule
// `simd-confinement`; kernels must be expressible in these primitives so the
// scalar reference path stays the single source of numeric truth.
//
// Determinism contract: every operation here is an IEEE-754 exact lane-wise
// op (add/sub/mul/div/sqrt are correctly rounded; shuffles move bits). A
// kernel that vectorizes ACROSS independent elements while keeping each
// element's scalar operation order therefore produces bit-identical results
// to the scalar reference. Kernels must not use fused multiply-add (the
// kernel translation units are compiled with -ffp-contract=off and without
// -mfma) and must not reorder reductions.
//
// Runtime kill switch: enabled() gates every kernel dispatch and is false
// when the STF_SIMD environment variable is "off"/"0"/"false" (or after
// set_enabled(false), which tests use to compare both paths in one process).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if !defined(STF_SIMD_COMPILE)
#define STF_SIMD_COMPILE 1
#endif

// Backend id: 0 scalar, 1 NEON, 2 SSE2, 3 AVX2.
#if STF_SIMD_COMPILE && defined(__AVX2__)
#define STF_SIMD_BACKEND 3
#include <immintrin.h>
#elif STF_SIMD_COMPILE && \
    (defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64))
#define STF_SIMD_BACKEND 2
#include <immintrin.h>
#elif STF_SIMD_COMPILE && defined(__aarch64__)
#define STF_SIMD_BACKEND 1
#include <arm_neon.h>
#else
#define STF_SIMD_BACKEND 0
#endif

namespace stf::core::simd {

/// Alignment (bytes) for storage the vector kernels stream through. One
/// cache line: enough for AVX-512 lanes and keeps hot tables line-aligned.
inline constexpr std::size_t kAlignment = 64;

/// True when the runtime STF_SIMD switch allows vector dispatch (default
/// on; STF_SIMD=off/0/false disables). Implemented in simd.cpp.
bool runtime_enabled() noexcept;

/// Override the environment at runtime (tests compare both paths with
/// this). Thread-safe; affects subsequent kernel dispatches.
void set_enabled(bool on) noexcept;

/// Reset set_enabled() overrides back to the environment default.
void clear_enabled_override() noexcept;

/// Minimal aligned allocator so plan tables and scratch buffers start on a
/// kAlignment boundary (cached FFT plans must never force the kernels onto
/// split-line loads).
template <class T>
struct AlignedAllocator {
  using value_type = T;
  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlignment});
  }
  bool operator==(const AlignedAllocator&) const noexcept { return true; }
  bool operator!=(const AlignedAllocator&) const noexcept { return false; }
};

/// std::vector with kAlignment-aligned storage.
template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// True when p sits on an `align`-byte boundary.
inline bool is_aligned(const void* p, std::size_t align) noexcept {
  return (reinterpret_cast<std::uintptr_t>(p) & (align - 1)) == 0;
}

#if STF_SIMD_BACKEND == 3  // ----------------------------------------- AVX2

inline namespace b_avx2 {

inline constexpr std::size_t kLanes = 4;
constexpr bool compiled() noexcept { return true; }
constexpr const char* backend_name() noexcept { return "avx2"; }

/// Pack of kLanes doubles.
struct VecD {
  __m256d v;
};

inline VecD load(const double* p) noexcept { return {_mm256_loadu_pd(p)}; }
inline void store(double* p, VecD a) noexcept { _mm256_storeu_pd(p, a.v); }
inline VecD broadcast(double x) noexcept { return {_mm256_set1_pd(x)}; }
/// Repeat an (even, odd) pair across every pair of lanes: [e o e o].
inline VecD set_pair(double e, double o) noexcept {
  return {_mm256_setr_pd(e, o, e, o)};
}
inline VecD operator+(VecD a, VecD b) noexcept {
  return {_mm256_add_pd(a.v, b.v)};
}
inline VecD operator-(VecD a, VecD b) noexcept {
  return {_mm256_sub_pd(a.v, b.v)};
}
inline VecD operator*(VecD a, VecD b) noexcept {
  return {_mm256_mul_pd(a.v, b.v)};
}
inline VecD operator/(VecD a, VecD b) noexcept {
  return {_mm256_div_pd(a.v, b.v)};
}
inline VecD sqrt(VecD a) noexcept { return {_mm256_sqrt_pd(a.v)}; }
/// [a1 a0 a3 a2]: swap the members of each (even, odd) pair.
inline VecD swap_pairs(VecD a) noexcept {
  return {_mm256_permute_pd(a.v, 0b0101)};
}
/// [a0 a0 a2 a2]: duplicate even lanes over their pair.
inline VecD dup_even(VecD a) noexcept { return {_mm256_movedup_pd(a.v)}; }
/// [a1 a1 a3 a3]: duplicate odd lanes over their pair.
inline VecD dup_odd(VecD a) noexcept {
  return {_mm256_permute_pd(a.v, 0b1111)};
}
/// Even lanes a-b, odd lanes a+b (the complex-multiply cross term).
inline VecD addsub(VecD a, VecD b) noexcept {
  return {_mm256_addsub_pd(a.v, b.v)};
}

/// Lanes from p[0], p[stride], p[2 * stride], ... and back: element j of
/// a device-interleaved buffer, one device per lane.
inline VecD load_strided(const double* p, std::size_t stride) noexcept {
  return {_mm256_setr_pd(p[0], p[stride], p[2 * stride], p[3 * stride])};
}
inline void store_strided(double* p, std::size_t stride, VecD a) noexcept {
  const __m128d lo = _mm256_castpd256_pd128(a.v);
  const __m128d hi = _mm256_extractf128_pd(a.v, 1);
  _mm_storel_pd(p, lo);
  _mm_storeh_pd(p + stride, lo);
  _mm_storel_pd(p + 2 * stride, hi);
  _mm_storeh_pd(p + 3 * stride, hi);
}

/// Pack of kLanes unsigned 64-bit integers.
struct VecU64 {
  __m256i v;
};

inline VecU64 load(const std::uint64_t* p) noexcept {
  return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
}
inline void store(std::uint64_t* p, VecU64 a) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a.v);
}
inline VecU64 broadcast_u64(std::uint64_t x) noexcept {
  return {_mm256_set1_epi64x(static_cast<long long>(x))};
}
inline VecU64 operator&(VecU64 a, VecU64 b) noexcept {
  return {_mm256_and_si256(a.v, b.v)};
}
inline VecU64 operator|(VecU64 a, VecU64 b) noexcept {
  return {_mm256_or_si256(a.v, b.v)};
}
inline VecU64 operator^(VecU64 a, VecU64 b) noexcept {
  return {_mm256_xor_si256(a.v, b.v)};
}
/// Lane-wise a - b modulo 2^64.
inline VecU64 operator-(VecU64 a, VecU64 b) noexcept {
  return {_mm256_sub_epi64(a.v, b.v)};
}
/// Logical shifts of every lane by a constant 0 < N < 64.
template <int N>
inline VecU64 shift_right(VecU64 a) noexcept {
  return {_mm256_srli_epi64(a.v, N)};
}
template <int N>
inline VecU64 shift_left(VecU64 a) noexcept {
  return {_mm256_slli_epi64(a.v, N)};
}
/// Reinterpret lane bits (no conversion).
inline VecD as_double(VecU64 a) noexcept { return {_mm256_castsi256_pd(a.v)}; }
inline VecU64 as_bits(VecD a) noexcept { return {_mm256_castpd_si256(a.v)}; }
/// Lanes below 2^53 as doubles, exactly. AVX2 has no u64 -> f64 convert:
/// the low 26 and high 27 bits each become exact doubles through the 2^52
/// exponent trick, and hi * 2^26 + lo is exact because it needs at most 53
/// significant bits.
inline VecD to_double(VecU64 a) noexcept {
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);  // 2^52
  const __m256d two52 = _mm256_set1_pd(4503599627370496.0);
  const __m256i low_mask = _mm256_set1_epi64x((1LL << 26) - 1);
  const __m256d lo = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_and_si256(a.v, low_mask),
                                          magic)),
      two52);
  const __m256d hi = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(a.v, 26), magic)),
      two52);
  return {_mm256_add_pd(_mm256_mul_pd(hi, _mm256_set1_pd(67108864.0)), lo)};
}
/// Per-lane table lookup: lane j gets table[index[j]].
inline VecD gather(const double* table, VecU64 index) noexcept {
  return {_mm256_i64gather_pd(table, index.v, 8)};
}
/// Bit j set when a[j] < b[j] (false for NaN operands).
inline unsigned less_mask(VecD a, VecD b) noexcept {
  return static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)));
}
/// |a| per lane: clears the sign bit, as std::abs(double) does.
inline VecD abs(VecD a) noexcept {
  return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
}
/// Bit j set when a[j] <= b[j] (false for NaN operands); le_mask(b, a) is
/// the a >= b mask.
inline unsigned le_mask(VecD a, VecD b) noexcept {
  return static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)));
}
/// Lane j of a where bit j of mask is set, else lane j of b.
inline VecD blend(unsigned mask, VecD a, VecD b) noexcept {
  const __m256i bit = _mm256_setr_epi64x(1, 2, 4, 8);
  const __m256i on = _mm256_cmpeq_epi64(
      _mm256_and_si256(_mm256_set1_epi64x(static_cast<long long>(mask)), bit),
      bit);
  return {_mm256_blendv_pd(b.v, a.v, _mm256_castsi256_pd(on))};
}

}  // namespace b_avx2

#elif STF_SIMD_BACKEND == 2  // --------------------------------------- SSE2

inline namespace b_sse2 {

inline constexpr std::size_t kLanes = 2;
constexpr bool compiled() noexcept { return true; }
constexpr const char* backend_name() noexcept { return "sse2"; }

struct VecD {
  __m128d v;
};

inline VecD load(const double* p) noexcept { return {_mm_loadu_pd(p)}; }
inline void store(double* p, VecD a) noexcept { _mm_storeu_pd(p, a.v); }
inline VecD broadcast(double x) noexcept { return {_mm_set1_pd(x)}; }
inline VecD set_pair(double e, double o) noexcept {
  return {_mm_setr_pd(e, o)};
}
inline VecD operator+(VecD a, VecD b) noexcept {
  return {_mm_add_pd(a.v, b.v)};
}
inline VecD operator-(VecD a, VecD b) noexcept {
  return {_mm_sub_pd(a.v, b.v)};
}
inline VecD operator*(VecD a, VecD b) noexcept {
  return {_mm_mul_pd(a.v, b.v)};
}
inline VecD operator/(VecD a, VecD b) noexcept {
  return {_mm_div_pd(a.v, b.v)};
}
inline VecD sqrt(VecD a) noexcept { return {_mm_sqrt_pd(a.v)}; }
inline VecD swap_pairs(VecD a) noexcept {
  return {_mm_shuffle_pd(a.v, a.v, 0b01)};
}
inline VecD dup_even(VecD a) noexcept {
  return {_mm_shuffle_pd(a.v, a.v, 0b00)};
}
inline VecD dup_odd(VecD a) noexcept {
  return {_mm_shuffle_pd(a.v, a.v, 0b11)};
}
inline VecD addsub(VecD a, VecD b) noexcept {
  // a + (b with the even lane negated): x - y and x + (-y) are the same
  // IEEE operation, so this matches a dedicated addsub instruction bit for
  // bit without needing SSE3.
  const __m128d flip = _mm_set_pd(0.0, -0.0);
  return {_mm_add_pd(a.v, _mm_xor_pd(b.v, flip))};
}

inline VecD load_strided(const double* p, std::size_t stride) noexcept {
  return {_mm_setr_pd(p[0], p[stride])};
}
inline void store_strided(double* p, std::size_t stride, VecD a) noexcept {
  _mm_storel_pd(p, a.v);
  _mm_storeh_pd(p + stride, a.v);
}

struct VecU64 {
  __m128i v;
};

inline VecU64 load(const std::uint64_t* p) noexcept {
  return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
}
inline void store(std::uint64_t* p, VecU64 a) noexcept {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a.v);
}
inline VecU64 broadcast_u64(std::uint64_t x) noexcept {
  return {_mm_set1_epi64x(static_cast<long long>(x))};
}
inline VecU64 operator&(VecU64 a, VecU64 b) noexcept {
  return {_mm_and_si128(a.v, b.v)};
}
inline VecU64 operator|(VecU64 a, VecU64 b) noexcept {
  return {_mm_or_si128(a.v, b.v)};
}
inline VecU64 operator^(VecU64 a, VecU64 b) noexcept {
  return {_mm_xor_si128(a.v, b.v)};
}
inline VecU64 operator-(VecU64 a, VecU64 b) noexcept {
  return {_mm_sub_epi64(a.v, b.v)};
}
template <int N>
inline VecU64 shift_right(VecU64 a) noexcept {
  return {_mm_srli_epi64(a.v, N)};
}
template <int N>
inline VecU64 shift_left(VecU64 a) noexcept {
  return {_mm_slli_epi64(a.v, N)};
}
inline VecD as_double(VecU64 a) noexcept { return {_mm_castsi128_pd(a.v)}; }
inline VecU64 as_bits(VecD a) noexcept { return {_mm_castpd_si128(a.v)}; }
inline VecD to_double(VecU64 a) noexcept {
  // The AVX2 backend's split: SSE2 has no u64 -> f64 convert either.
  const __m128i magic = _mm_set1_epi64x(0x4330000000000000LL);  // 2^52
  const __m128d two52 = _mm_set1_pd(4503599627370496.0);
  const __m128i low_mask = _mm_set1_epi64x((1LL << 26) - 1);
  const __m128d lo = _mm_sub_pd(
      _mm_castsi128_pd(_mm_or_si128(_mm_and_si128(a.v, low_mask), magic)),
      two52);
  const __m128d hi = _mm_sub_pd(
      _mm_castsi128_pd(_mm_or_si128(_mm_srli_epi64(a.v, 26), magic)), two52);
  return {_mm_add_pd(_mm_mul_pd(hi, _mm_set1_pd(67108864.0)), lo)};
}
inline VecD gather(const double* table, VecU64 index) noexcept {
  alignas(16) std::uint64_t i[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(i), index.v);
  return {_mm_setr_pd(table[i[0]], table[i[1]])};
}
inline unsigned less_mask(VecD a, VecD b) noexcept {
  return static_cast<unsigned>(_mm_movemask_pd(_mm_cmplt_pd(a.v, b.v)));
}
inline VecD abs(VecD a) noexcept {
  return {_mm_andnot_pd(_mm_set1_pd(-0.0), a.v)};
}
inline unsigned le_mask(VecD a, VecD b) noexcept {
  return static_cast<unsigned>(_mm_movemask_pd(_mm_cmple_pd(a.v, b.v)));
}
inline VecD blend(unsigned mask, VecD a, VecD b) noexcept {
  const __m128d on = _mm_castsi128_pd(
      _mm_set_epi64x(-static_cast<long long>((mask >> 1) & 1u),
                     -static_cast<long long>(mask & 1u)));
  return {_mm_or_pd(_mm_and_pd(on, a.v), _mm_andnot_pd(on, b.v))};
}

}  // namespace b_sse2

#elif STF_SIMD_BACKEND == 1  // --------------------------------------- NEON

inline namespace b_neon {

inline constexpr std::size_t kLanes = 2;
constexpr bool compiled() noexcept { return true; }
constexpr const char* backend_name() noexcept { return "neon"; }

struct VecD {
  float64x2_t v;
};

inline VecD load(const double* p) noexcept { return {vld1q_f64(p)}; }
inline void store(double* p, VecD a) noexcept { vst1q_f64(p, a.v); }
inline VecD broadcast(double x) noexcept { return {vdupq_n_f64(x)}; }
inline VecD set_pair(double e, double o) noexcept {
  return {float64x2_t{e, o}};
}
inline VecD operator+(VecD a, VecD b) noexcept { return {vaddq_f64(a.v, b.v)}; }
inline VecD operator-(VecD a, VecD b) noexcept { return {vsubq_f64(a.v, b.v)}; }
inline VecD operator*(VecD a, VecD b) noexcept { return {vmulq_f64(a.v, b.v)}; }
inline VecD operator/(VecD a, VecD b) noexcept { return {vdivq_f64(a.v, b.v)}; }
inline VecD sqrt(VecD a) noexcept { return {vsqrtq_f64(a.v)}; }
inline VecD swap_pairs(VecD a) noexcept { return {vextq_f64(a.v, a.v, 1)}; }
inline VecD dup_even(VecD a) noexcept { return {vdupq_laneq_f64(a.v, 0)}; }
inline VecD dup_odd(VecD a) noexcept { return {vdupq_laneq_f64(a.v, 1)}; }
inline VecD addsub(VecD a, VecD b) noexcept {
  const uint64x2_t flip = {0x8000000000000000ULL, 0};
  const float64x2_t nb = vreinterpretq_f64_u64(
      veorq_u64(vreinterpretq_u64_f64(b.v), flip));
  return {vaddq_f64(a.v, nb)};
}

inline VecD load_strided(const double* p, std::size_t stride) noexcept {
  return {float64x2_t{p[0], p[stride]}};
}
inline void store_strided(double* p, std::size_t stride, VecD a) noexcept {
  vst1q_lane_f64(p, a.v, 0);
  vst1q_lane_f64(p + stride, a.v, 1);
}

struct VecU64 {
  uint64x2_t v;
};

inline VecU64 load(const std::uint64_t* p) noexcept { return {vld1q_u64(p)}; }
inline void store(std::uint64_t* p, VecU64 a) noexcept { vst1q_u64(p, a.v); }
inline VecU64 broadcast_u64(std::uint64_t x) noexcept {
  return {vdupq_n_u64(x)};
}
inline VecU64 operator&(VecU64 a, VecU64 b) noexcept {
  return {vandq_u64(a.v, b.v)};
}
inline VecU64 operator|(VecU64 a, VecU64 b) noexcept {
  return {vorrq_u64(a.v, b.v)};
}
inline VecU64 operator^(VecU64 a, VecU64 b) noexcept {
  return {veorq_u64(a.v, b.v)};
}
inline VecU64 operator-(VecU64 a, VecU64 b) noexcept {
  return {vsubq_u64(a.v, b.v)};
}
template <int N>
inline VecU64 shift_right(VecU64 a) noexcept {
  return {vshrq_n_u64(a.v, N)};
}
template <int N>
inline VecU64 shift_left(VecU64 a) noexcept {
  return {vshlq_n_u64(a.v, N)};
}
inline VecD as_double(VecU64 a) noexcept {
  return {vreinterpretq_f64_u64(a.v)};
}
inline VecU64 as_bits(VecD a) noexcept { return {vreinterpretq_u64_f64(a.v)}; }
inline VecD to_double(VecU64 a) noexcept { return {vcvtq_f64_u64(a.v)}; }
inline VecD gather(const double* table, VecU64 index) noexcept {
  return {float64x2_t{table[vgetq_lane_u64(index.v, 0)],
                      table[vgetq_lane_u64(index.v, 1)]}};
}
inline unsigned less_mask(VecD a, VecD b) noexcept {
  const uint64x2_t m = vcltq_f64(a.v, b.v);
  return static_cast<unsigned>((vgetq_lane_u64(m, 0) & 1) |
                               ((vgetq_lane_u64(m, 1) & 1) << 1));
}
inline VecD abs(VecD a) noexcept { return {vabsq_f64(a.v)}; }
inline unsigned le_mask(VecD a, VecD b) noexcept {
  const uint64x2_t m = vcleq_f64(a.v, b.v);
  return static_cast<unsigned>((vgetq_lane_u64(m, 0) & 1) |
                               ((vgetq_lane_u64(m, 1) & 1) << 1));
}
inline VecD blend(unsigned mask, VecD a, VecD b) noexcept {
  const uint64x2_t on = {(mask & 1u) != 0 ? ~0ULL : 0ULL,
                         (mask & 2u) != 0 ? ~0ULL : 0ULL};
  return {vbslq_f64(on, a.v, b.v)};
}

}  // namespace b_neon

#else  // ------------------------------------------------------------ scalar

inline namespace b_scalar {

inline constexpr std::size_t kLanes = 1;
constexpr bool compiled() noexcept { return false; }
constexpr const char* backend_name() noexcept { return "scalar"; }

/// One-lane "vector" so shared helper code still compiles; kernels guard
/// their pair-wise paths with `if constexpr (kLanes >= 2)`.
struct VecD {
  double v;
};

inline VecD load(const double* p) noexcept { return {*p}; }
inline void store(double* p, VecD a) noexcept { *p = a.v; }
inline VecD broadcast(double x) noexcept { return {x}; }
inline VecD set_pair(double e, double) noexcept { return {e}; }
inline VecD operator+(VecD a, VecD b) noexcept { return {a.v + b.v}; }
inline VecD operator-(VecD a, VecD b) noexcept { return {a.v - b.v}; }
inline VecD operator*(VecD a, VecD b) noexcept { return {a.v * b.v}; }
inline VecD operator/(VecD a, VecD b) noexcept { return {a.v / b.v}; }
inline VecD sqrt(VecD a) noexcept { return {__builtin_sqrt(a.v)}; }
inline VecD swap_pairs(VecD a) noexcept { return a; }
inline VecD dup_even(VecD a) noexcept { return a; }
inline VecD dup_odd(VecD a) noexcept { return a; }
inline VecD addsub(VecD a, VecD b) noexcept { return {a.v - b.v}; }

inline VecD load_strided(const double* p, std::size_t) noexcept {
  return {*p};
}
inline void store_strided(double* p, std::size_t, VecD a) noexcept {
  *p = a.v;
}

struct VecU64 {
  std::uint64_t v;
};

inline VecU64 load(const std::uint64_t* p) noexcept { return {*p}; }
inline void store(std::uint64_t* p, VecU64 a) noexcept { *p = a.v; }
inline VecU64 broadcast_u64(std::uint64_t x) noexcept { return {x}; }
inline VecU64 operator&(VecU64 a, VecU64 b) noexcept { return {a.v & b.v}; }
inline VecU64 operator|(VecU64 a, VecU64 b) noexcept { return {a.v | b.v}; }
inline VecU64 operator^(VecU64 a, VecU64 b) noexcept { return {a.v ^ b.v}; }
inline VecU64 operator-(VecU64 a, VecU64 b) noexcept { return {a.v - b.v}; }
template <int N>
inline VecU64 shift_right(VecU64 a) noexcept {
  return {a.v >> N};
}
template <int N>
inline VecU64 shift_left(VecU64 a) noexcept {
  return {a.v << N};
}
inline VecD as_double(VecU64 a) noexcept {
  return {__builtin_bit_cast(double, a.v)};
}
inline VecU64 as_bits(VecD a) noexcept {
  return {__builtin_bit_cast(std::uint64_t, a.v)};
}
inline VecD to_double(VecU64 a) noexcept {
  return {static_cast<double>(a.v)};
}
inline VecD gather(const double* table, VecU64 index) noexcept {
  return {table[index.v]};
}
inline unsigned less_mask(VecD a, VecD b) noexcept {
  return a.v < b.v ? 1u : 0u;
}
inline VecD abs(VecD a) noexcept { return {__builtin_fabs(a.v)}; }
inline unsigned le_mask(VecD a, VecD b) noexcept {
  return a.v <= b.v ? 1u : 0u;
}
inline VecD blend(unsigned mask, VecD a, VecD b) noexcept {
  return (mask & 1u) != 0 ? a : b;
}

}  // namespace b_scalar

#endif  // STF_SIMD_BACKEND

/// Interleaved complex multiply: lanes hold (re, im) pairs; returns x * w
/// per pair with the scalar operation order (re: xr*wr - xi*wi, im:
/// xi*wr + xr*wi -- the same products and sums std::complex multiplication
/// performs on finite values, so results are bit-identical to the scalar
/// reference).
inline VecD complex_mul(VecD x, VecD w) noexcept {
  return addsub(x * dup_even(w), swap_pairs(x) * dup_odd(w));
}

/// Whether this translation unit has a vector backend AND the runtime
/// switch allows it. Kernels branch on this per call; the scalar branch is
/// the bit-exact reference path.
inline bool enabled() noexcept { return compiled() && runtime_enabled(); }

}  // namespace stf::core::simd

// Fast Fourier transform.
//
// The signature itself is the magnitude of the FFT of the demodulated
// baseband response (paper Section 2.1, Fig. 3) -- taking the magnitude
// removes the path-length phase term of Eq. 5. The tester zero-pads every
// capture to a power of two, so one forward iterative radix-2 Cooley-Tukey
// kernel is the only transform it runs.
//
// Per-size precomputes (twiddle tables, bit-reversal permutations) live in a
// process-wide, thread-safe plan cache: production runs transform the same
// capture length thousands of times, so the setup cost is paid once per
// size, not per call.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace stf::dsp {

using cplx = std::complex<double>;

/// True if n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

/// In-place forward DFT X[k] = sum_n x[n] exp(-j 2 pi k n / N) of a
/// power-of-two-length buffer. Allocation-free (the plan comes from the
/// cache, scratch is the caller's buffer), so the per-device signature path
/// can run out of arena memory.
void fft_pow2_inplace(std::span<cplx> x);

/// Signals fft_pow2_lanes() runs through one vector pass: the vector width
/// of the FFT kernels, or 1 when this build has no vector backend or the
/// runtime STF_SIMD switch is off.
std::size_t fft_lane_width();

/// fft_pow2_inplace() on each of `lanes` same-length signals held
/// lane-interleaved element by element, as LoadBoard::capture_lanes lays
/// out its device buffers, in split planes: lane d's element j is
/// (re[j * lanes + d], im[j * lanes + d]). The length must be a power of
/// two. With lanes == fft_lane_width() > 1 one radix-2 pass transforms
/// every lane, each doing fft_pow2_inplace's operations in their order;
/// other lane counts transform each signal alone. Either way each lane's
/// spectrum is bit-identical to fft_pow2_inplace() on that signal. Looks
/// the plan up once per call and counts `lanes` transforms in
/// fft.transforms. Scratch comes from the per-thread capture arena.
void fft_pow2_lanes(std::span<double> re, std::span<double> im,
                    std::size_t lanes);

/// Alignment (bytes) the plan cache guarantees for twiddle tables.
std::size_t fft_plan_table_alignment();

/// True when the cached twiddle table for power-of-two size n starts on an
/// fft_plan_table_alignment() boundary. Builds the plan if it is not cached
/// yet; regression hook for the lane-alignment contract.
bool fft_plan_tables_aligned(std::size_t n);

/// Brute-force O(N^2) DFT, used as the test oracle for the fast paths.
std::vector<cplx> dft_reference(const std::vector<cplx>& x);

/// Number of cached FFT plans: at most one per power-of-two size, so never
/// more than the bits of std::size_t. Observability hook for tests and
/// benchmarks.
std::size_t fft_plan_cache_size();

/// Drop every cached plan. Exists so benchmarks can measure the cold
/// (plan-building) path; in-flight transforms keep their plan alive, but do
/// not call concurrently with transforms you want to stay warm.
void fft_plan_cache_clear();

}  // namespace stf::dsp

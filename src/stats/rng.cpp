#include "stats/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "core/contracts.hpp"
#include "core/simd.hpp"

namespace stf::stats {

namespace simd = stf::core::simd;

namespace {

// MT19937-64's seeding recurrence: state word i from word i - 1. Each word
// is a multiply away from the one before, so seeding one engine is a
// latency-bound chain of 311 steps; seed_four runs four independent chains
// in one loop, in about the time of one.
std::uint64_t seed_step(std::uint64_t prev, std::size_t i) {
  return 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
}

void seed_one(std::uint64_t* s, std::size_t words) {
  for (std::size_t i = 1; i < words; ++i) s[i] = seed_step(s[i - 1], i);
}

void seed_four(std::uint64_t* const* s, std::size_t words) {
  std::uint64_t a = s[0][0], b = s[1][0], c = s[2][0], d = s[3][0];
  for (std::size_t i = 1; i < words; ++i) {
    a = seed_step(a, i);
    b = seed_step(b, i);
    c = seed_step(c, i);
    d = seed_step(d, i);
    s[0][i] = a;
    s[1][i] = b;
    s[2][i] = c;
    s[3][i] = d;
  }
}

}  // namespace

void Mt19937_64::seed_pending(std::span<Mt19937_64* const> engines) {
  for (const Mt19937_64* e : engines)
    STF_REQUIRE(e != nullptr, "Mt19937_64::seed_pending: null engine");
  // Groups of four; the engines short of a last group seed one by one.
  std::uint64_t* group[4];
  std::size_t n = 0;
  for (Mt19937_64* e : engines) {
    if (e->index_ != kUnseeded) continue;
    e->index_ = kStateWords;  // seeded, block spent: the next draw twists
    group[n++] = e->state_;
    if (n == 4) {
      seed_four(group, kStateWords);
      n = 0;
    }
  }
  for (std::size_t j = 0; j < n; ++j) seed_one(group[j], kStateWords);
}

void Mt19937_64::refill() {
  if (index_ == kUnseeded) {
    Mt19937_64* const self = this;
    seed_pending({&self, 1});
  }
  twist();
}

void Mt19937_64::twist() {
  constexpr std::size_t kShift = 156;  // the recurrence's middle word offset
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kMatrixA = 0xB5026F5AA96619E9ULL;
  // The low bit of y selects kMatrixA through a mask, not a branch: the bit
  // is a coin flip, so a branch would mispredict on every other word.
  const auto next = [](result_type word, result_type succ, result_type mid) {
    const result_type y = (word & kUpper) | (succ & ~kUpper);
    return mid ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & kMatrixA);
  };
  std::size_t k = 0;
  if constexpr (simd::kLanes >= 2) {
    if (simd::enabled()) {
      // Lane j of a group computes word k + j from words k + j + 1 and
      // k + j +- kShift, none of which another lane of the group writes, so
      // every word is the scalar loop's. The last group stops short of word
      // 311, whose successor wraps to word 0.
      static_assert((kStateWords - kShift) % simd::kLanes == 0);
      const simd::VecU64 upper = simd::broadcast_u64(kUpper);
      const simd::VecU64 lower = simd::broadcast_u64(~kUpper);
      const simd::VecU64 one = simd::broadcast_u64(1);
      const simd::VecU64 zero = simd::broadcast_u64(0);
      const simd::VecU64 matrix_a = simd::broadcast_u64(kMatrixA);
      const auto next_lanes = [&](const result_type* word,
                                  const result_type* mid) {
        const simd::VecU64 y =
            (simd::load(word) & upper) | (simd::load(word + 1) & lower);
        return simd::load(mid) ^ simd::shift_right<1>(y) ^
               ((zero - (y & one)) & matrix_a);
      };
      for (; k < kStateWords - kShift; k += simd::kLanes)
        simd::store(state_ + k, next_lanes(state_ + k, state_ + k + kShift));
      for (; k + simd::kLanes < kStateWords; k += simd::kLanes)
        simd::store(state_ + k, next_lanes(state_ + k,
                                           state_ + k + kShift - kStateWords));
    }
  }
  for (; k < kStateWords - kShift; ++k)
    state_[k] = next(state_[k], state_[k + 1], state_[k + kShift]);
  for (; k < kStateWords - 1; ++k)
    state_[k] =
        next(state_[k], state_[k + 1], state_[k + kShift - kStateWords]);
  state_[k] = next(state_[k], state_[0], state_[kShift - 1]);
  index_ = 0;
}

void Rng::seed_pending(std::span<Rng> rngs) {
  constexpr std::size_t kChunk = 16;
  Mt19937_64* engines[kChunk];
  for (std::size_t lo = 0; lo < rngs.size(); lo += kChunk) {
    const std::size_t n = std::min(kChunk, rngs.size() - lo);
    for (std::size_t i = 0; i < n; ++i) engines[i] = &rngs[lo + i].engine_;
    Mt19937_64::seed_pending({engines, n});
  }
}

namespace detail {
namespace {

// 256-layer ziggurat for the standard normal (Marsaglia & Tsang 2000).
//
// The right half-density f(x) = exp(-x^2/2) is covered by 256 equal-area
// regions: 255 horizontal strips plus a base strip that also carries the
// tail beyond kR. One 64-bit engine draw supplies the layer index (low 8
// bits), the sign (bit 8) and a 53-bit uniform magnitude; the draw is
// accepted immediately whenever it lands strictly inside the layer above's
// width, which happens ~99% of the time. Wedge and tail corrections run
// out of line with fresh uniforms, so the result is an *exact* normal
// sample, not an approximation -- only the speed differs from the polar
// method.
//
// Determinism: the number of engine draws per sample is a deterministic
// function of the engine stream, and the arithmetic below is plain IEEE
// double math with no library-dependent distribution state, so a given
// seed yields the same sample sequence on every platform and build.
constexpr int kLayers = 256;
// Rightmost strip edge for 256 layers (standard tabulated constant).
constexpr double kR = 3.6541528853610088;
constexpr double kTwoPow53Inv =
    1.0 / 9007199254740992.0;  // 2^-53: maps a 53-bit draw onto [0, 1)

struct ZigTables {
  double x[kLayers + 1];  // x[0]=base-strip virtual width, x[1]=kR, x[256]=0
  double f[kLayers + 1];  // f[i] = exp(-x[i]^2 / 2)
};

ZigTables build_tables() {
  ZigTables t{};
  const double f_r = std::exp(-0.5 * kR * kR);
  // Common region area: base rectangle plus the analytic Gaussian tail,
  // integral_r^inf exp(-x^2/2) dx = sqrt(pi/2) * erfc(r / sqrt(2)).
  const double v = kR * f_r + std::sqrt(std::numbers::pi / 2.0) *
                                  std::erfc(kR / std::numbers::sqrt2);
  t.x[0] = v / f_r;  // base strip is wider than kR; overflow routes to tail
  t.x[1] = kR;
  for (int i = 2; i < kLayers; ++i) {
    // Each strip has area v: x[i] = f^-1(v / x[i-1] + f(x[i-1])).
    const double y =
        v / t.x[i - 1] + std::exp(-0.5 * t.x[i - 1] * t.x[i - 1]);
    t.x[i] = std::sqrt(-2.0 * std::log(y));
  }
  t.x[kLayers] = 0.0;
  for (int i = 0; i <= kLayers; ++i)
    t.f[i] = std::exp(-0.5 * t.x[i] * t.x[i]);
  // The topmost strip must close the ziggurat at the density peak; if kR
  // and the recurrence are consistent this lands on 1 to ~1e-9.
  const double closure =
      v / t.x[kLayers - 1] +
      std::exp(-0.5 * t.x[kLayers - 1] * t.x[kLayers - 1]);
  STF_ASSERT(std::fabs(closure - 1.0) < 1e-6,
             "ziggurat tables: layer recurrence did not close at f(0)=1");
  return t;
}

const ZigTables& tables() {
  static const ZigTables t = build_tables();
  return t;
}

double uniform53(Mt19937_64& engine) {
  return static_cast<double>(engine() >> 11) * kTwoPow53Inv;
}

// The ~1% of draws the fast path rejects: `bits` is the engine word it
// read and `x` the magnitude it built from it.
[[gnu::noinline]] double ziggurat_reject(Mt19937_64& engine,
                                         const ZigTables& t,
                                         std::uint64_t bits, double x) {
  const int i = static_cast<int>(bits & 0xFF);
  const bool negative = (bits & 0x100) != 0;
  if (i == 0) {
    // Base strip overflow: exact sample from the tail beyond kR via
    // Marsaglia's exponential rejection. 1-u keeps the logs finite.
    double xx;
    double yy;
    do {
      xx = -std::log(1.0 - uniform53(engine)) / kR;
      yy = -std::log(1.0 - uniform53(engine));
    } while (yy + yy < xx * xx);
    const double tail = kR + xx;
    return negative ? -tail : tail;
  }
  // Wedge: accept x in [x[i+1], x[i]) iff a uniform height between the
  // strip's floor and ceiling falls under the density.
  const double y = t.f[i] + uniform53(engine) * (t.f[i + 1] - t.f[i]);
  if (y < std::exp(-0.5 * x * x)) return negative ? -x : x;
  // A miss discards the word and starts a fresh draw.
  return ziggurat_normal(engine);
}

// The common case of every normal draw, inlined into both callers. One
// engine word supplies the layer index (low 8 bits), the sign (bit 8) and a
// 53-bit uniform magnitude; the draw is accepted whenever it lands strictly
// inside the layer above's width. x >= 0 there, so XOR-ing bit 8 into the
// sign bit is exactly `negative ? -x : x` without a 50/50 branch.
inline double ziggurat_draw(Mt19937_64& engine, const ZigTables& t) {
  const std::uint64_t bits = engine();
  const std::size_t i = bits & 0xFF;
  const double x = static_cast<double>(bits >> 11) * kTwoPow53Inv * t.x[i];
  if (x < t.x[i + 1]) [[likely]]
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^
                                 ((bits & 0x100) << 55));
  return ziggurat_reject(engine, t, bits, x);
}

// Mt19937_64::temper in lanes.
simd::VecU64 temper(simd::VecU64 z) {
  const auto mask = [](std::uint64_t m) { return simd::broadcast_u64(m); };
  z = z ^ (simd::shift_right<29>(z) & mask(0x5555555555555555ULL));
  z = z ^ (simd::shift_left<17>(z) & mask(0x71D67FFFEDA60000ULL));
  z = z ^ (simd::shift_left<37>(z) & mask(0xFFF7EEE000000000ULL));
  return z ^ simd::shift_right<43>(z);
}

// add_normal's vector path over samples x[k * stride], k < n. Each step
// tempers the engine's next kLanes words and runs ziggurat_draw's fast path
// on them in lanes: the same layer, magnitude, accept test and sign per
// word. Lanes up to the first rejected word hold exactly the draws the
// scalar loop makes, so they are added and their words consumed; the
// rejected word stays unread, and the scalar ziggurat_draw takes it next,
// as the scalar loop would. Steps stay inside the engine's current block;
// the words a block has left over for less than a step go to the scalar
// draw too. While every lane accepts, the next step's position does not
// wait on this step's accept test.
void add_normal_lanes(Mt19937_64& engine, const ZigTables& t, double* x,
                      std::size_t n, double sigma, std::size_t stride) {
  constexpr std::size_t kLanes = simd::kLanes;
  const double mean = 0.0;  // normal(0.0, sigma)'s `mean + sigma * z`
  const simd::VecU64 layer_bits = simd::broadcast_u64(0xFF);
  const simd::VecU64 sign_bit = simd::broadcast_u64(0x100);
  const simd::VecD unit = simd::broadcast(kTwoPow53Inv);
  const simd::VecD lane_mean = simd::broadcast(mean);
  const simd::VecD lane_sigma = simd::broadcast(sigma);
  std::size_t k = 0;
  while (k < n) {
    const std::span<const std::uint64_t> words = engine.pending();
    std::size_t used = 0;
    while (used + kLanes <= words.size() && k < n) {
      const simd::VecU64 bits = temper(simd::load(words.data() + used));
      const simd::VecU64 layer = bits & layer_bits;
      const simd::VecD mag = simd::to_double(simd::shift_right<11>(bits)) *
                             unit * simd::gather(t.x, layer);
      const unsigned accepted =
          simd::less_mask(mag, simd::gather(t.x + 1, layer));
      const simd::VecD z = simd::as_double(
          simd::as_bits(mag) ^ simd::shift_left<55>(bits & sign_bit));
      const simd::VecD noise = lane_mean + lane_sigma * z;
      const std::size_t take = std::min<std::size_t>(
          std::countr_one(accepted), std::min(kLanes, n - k));
      double* const at = x + k * stride;
      if (take == kLanes) {
        if (stride == 1)
          simd::store(at, simd::load(at) + noise);
        else
          simd::store_strided(at, stride,
                              simd::load_strided(at, stride) + noise);
        used += kLanes;
        k += kLanes;
        continue;
      }
      alignas(simd::kAlignment) double lane[kLanes];
      simd::store(lane, noise);
      for (std::size_t j = 0; j < take; ++j) at[j * stride] += lane[j];
      used += take;
      k += take;
      break;
    }
    engine.skip(used);
    if (k < n) {
      x[k * stride] += mean + sigma * ziggurat_draw(engine, t);
      ++k;
    }
  }
}

}  // namespace

// Total over its domain: any engine state yields a valid standard-normal
// draw, so there is no input contract to state.
// stf-analyze: allow(api-contract)
double ziggurat_normal(Mt19937_64& engine) {
  return ziggurat_draw(engine, tables());
}

}  // namespace detail

void Rng::add_normal(std::span<double> x, double sigma, std::size_t stride) {
  STF_REQUIRE(!(sigma < 0.0), "Rng::add_normal: sigma must not be negative");
  STF_REQUIRE(stride != 0, "Rng::add_normal: stride must be > 0");
  const detail::ZigTables& t = detail::tables();
  if constexpr (simd::kLanes >= 2) {
    if (simd::enabled()) {
      const std::size_t n = x.empty() ? 0 : (x.size() - 1) / stride + 1;
      detail::add_normal_lanes(engine_, t, x.data(), n, sigma, stride);
      return;
    }
  }
  const double mean = 0.0;  // normal(0.0, sigma)'s `mean + sigma * z`
  for (std::size_t k = 0; k < x.size(); k += stride)
    x[k] += mean + sigma * detail::ziggurat_draw(engine_, t);
}

}  // namespace stf::stats

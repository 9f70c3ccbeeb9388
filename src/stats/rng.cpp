#include "stats/rng.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "core/contracts.hpp"

namespace stf::stats {

Mt19937_64::Mt19937_64(result_type seed) : index_(kStateWords) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i)
    state_[i] =
        6364136223846793005ULL * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
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
  for (; k < kStateWords - kShift; ++k)
    state_[k] = next(state_[k], state_[k + 1], state_[k + kShift]);
  for (; k < kStateWords - 1; ++k)
    state_[k] =
        next(state_[k], state_[k + 1], state_[k + kShift - kStateWords]);
  state_[k] = next(state_[k], state_[0], state_[kShift - 1]);
  index_ = 0;
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
  const double mean = 0.0;  // normal(0.0, sigma)'s `mean + sigma * z`
  for (std::size_t k = 0; k < x.size(); k += stride)
    x[k] += mean + sigma * detail::ziggurat_draw(engine_, t);
}

}  // namespace stf::stats

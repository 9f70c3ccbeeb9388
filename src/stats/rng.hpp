// Deterministic random number generation for Monte Carlo device populations
// and measurement-noise injection.
//
// All stochastic behavior in the framework flows through this one class so
// that experiments (paper Figs. 8-10, 12-13) are exactly reproducible from a
// seed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace stf::stats {

/// MT19937-64 (Matsumoto & Nishimura) with std::mt19937_64's exact output
/// for every seed: the same seeding recurrence, 312-word state, twist and
/// tempering, so any std distribution driven by it returns what it returns
/// driven by std::mt19937_64 (pinned in stats_test against the library
/// engine and the standard's 10000th value). It exists for speed: operator()
/// is inline (index check, load, tempering), and the refill of all 312
/// words runs out of line once per block, in 64-bit integer lanes and
/// without a branch per word. libstdc++'s engine makes an out-of-line call
/// per word and its twist branches on each word's low bit, a coin flip:
/// ~7 ns a word against ~2 ns here on a 2.1 GHz x86-64 Xeon VM. On that
/// host the perfbench lot_clean workload tests ~1.19x the devices per
/// second it does with std::mt19937_64 behind the same noise path.
///
/// Seeding is deferred: the constructor stores the seed, and the first
/// refill runs the 312-step seeding recurrence before its twist, so an
/// engine that is constructed, copied or derived costs O(1) until it draws.
/// seed_pending() seeds many engines at once for less.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) : index_(kUnseeded) {
    state_[0] = seed;
  }

  // An unseeded engine's state is its seed alone: copies take that word
  // and never read the 311 words not yet written.
  Mt19937_64(const Mt19937_64& other) : index_(other.index_) {
    std::copy_n(other.state_, other.words_held(), state_);
  }
  Mt19937_64& operator=(const Mt19937_64& other) {
    if (this != &other) {
      index_ = other.index_;
      std::copy_n(other.state_, other.words_held(), state_);
    }
    return *this;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index_ >= kStateWords) refill();
    return temper(state_[index_++]);
  }

  /// MT19937-64's output tempering of one raw state word.
  static constexpr result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  /// The raw words of the current block not yet drawn, refilling first if
  /// the block is spent: the next draws are temper(pending()[0]),
  /// temper(pending()[1]), ... A bulk consumer reads ahead here and then
  /// skip()s the words it used; the rest stay for the next draw.
  std::span<const result_type> pending() {
    if (index_ >= kStateWords) refill();
    return {state_ + index_, kStateWords - index_};
  }

  /// Consume the first n words of pending(); n must not exceed its size.
  void skip(std::size_t n) { index_ += n; }

  /// Seed every engine in `engines` that has not drawn yet, four at a time:
  /// each engine's 312-step recurrence is a serial chain of multiplies, and
  /// four chains interleaved take about as long as one. No stream changes;
  /// an engine left out seeds itself on its first draw.
  static void seed_pending(std::span<Mt19937_64* const> engines);

 private:
  static constexpr std::size_t kStateWords = 312;
  // index_ of an engine whose state holds only its seed, in state_[0].
  static constexpr std::size_t kUnseeded = kStateWords + 1;

  void refill();  // seed if still unseeded, then twist; index_ back to 0
  void twist();   // next 312-word block
  std::size_t words_held() const {
    return index_ == kUnseeded ? 1 : kStateWords;
  }

  result_type state_[kStateWords];
  std::size_t index_;
};

namespace detail {
/// Standard normal deviate from a 256-layer ziggurat over the engine's
/// 64-bit output (implementation and determinism notes in rng.cpp).
double ziggurat_normal(Mt19937_64& engine);
}  // namespace detail

/// Seedable random source over the in-repo MT19937-64 engine.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5161746573ULL)
      : seed_(seed), engine_(seed) {}

  /// Deterministic child stream: an Rng seeded from (seed, stream) through a
  /// splitmix64-style mix. Independent of how much this Rng has been
  /// consumed, so parallel loops can hand item i the stream derive(i) and
  /// produce results bit-identical to any serial or parallel schedule.
  /// Distinct stream indices give statistically independent sequences.
  /// O(1): the child's engine seeds itself when it first draws.
  Rng derive(std::uint64_t stream) const {
    // Two splitmix64 rounds over seed ^ f(stream): full avalanche, so
    // neighboring streams share no low-bit structure.
    std::uint64_t z = seed_ + 0x9E3779B97F4A7C15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return Rng(z ^ (z >> 31));
  }

  /// Mt19937_64::seed_pending over the engines of `rngs`: a lot seeds its
  /// children's engines together before they draw.
  static void seed_pending(std::span<Rng> rngs);

  /// The seed this Rng was constructed with (derive() keys off it).
  std::uint64_t seed() const { return seed_; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Standard normal sample scaled to the given sigma and mean.
  ///
  /// Implemented with a ziggurat rather than std::normal_distribution: the
  /// algorithm is fixed by this repo (not the standard library), so the
  /// sample stream is identical across platforms, build types, and the
  /// SIGTEST_SIMD setting for a given engine state. A call costs ~8 ns
  /// (BM_NormalNoise/0: 903 calls in 7.0 us on a 2.1 GHz x86-64 Xeon VM,
  /// where std::mt19937_64 behind the same ziggurat took 18 us); per-sample
  /// noise over a buffer goes through add_normal instead.
  double normal(double mean = 0.0, double sigma = 1.0) {
    return mean + sigma * detail::ziggurat_normal(engine_);
  }

  /// x[k] += normal(0.0, sigma) for k = 0, stride, 2 * stride, ... below
  /// x.size(), in order: the same engine words, the same draws and the same
  /// arithmetic as that scalar loop, bitwise. With SIMD on it tempers and
  /// tests simd::kLanes consecutive engine words per step and adds the
  /// accepted prefix; the first rejected word goes to the scalar ziggurat,
  /// which re-reads it. BM_NormalNoise/1, the 903 draws of one capture,
  /// takes 3.1-3.6 us in AVX2 lanes against 4.9-6.1 us with STF_SIMD=off
  /// on a 4-vCPU x86-64 VM. A stride above 1 adds one device's noise into
  /// its lane of a device-interleaved buffer. sigma must not be negative
  /// and stride must not be 0; a NaN sigma yields NaN samples, as the
  /// scalar loop does.
  void add_normal(std::span<double> x, double sigma, std::size_t stride = 1);

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Bernoulli trial with probability p of true.
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Vector of n iid normal samples.
  std::vector<double> normal_vector(std::size_t n, double mean = 0.0,
                                    double sigma = 1.0) {
    std::vector<double> v(n);
    for (auto& x : v) x = normal(mean, sigma);
    return v;
  }

  /// Vector of n iid uniform samples in [lo, hi).
  std::vector<double> uniform_vector(std::size_t n, double lo, double hi) {
    std::vector<double> v(n);
    for (auto& x : v) x = uniform(lo, hi);
    return v;
  }

  /// Fisher-Yates shuffle of indices 0..n-1.
  std::vector<std::size_t> permutation(std::size_t n) {
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = i;
    for (std::size_t i = n; i-- > 1;) {
      const std::size_t j =
          std::uniform_int_distribution<std::size_t>(0, i)(engine_);
      std::swap(p[i], p[j]);
    }
    return p;
  }

  /// Underlying engine, for std distributions not wrapped here.
  Mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  Mt19937_64 engine_;
};

}  // namespace stf::stats

// Unit and property tests for the stats substrate.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/simd.hpp"
#include "stats/descriptive.hpp"
#include "stats/metrics.hpp"
#include "stats/rng.hpp"
#include "stats/sampling.hpp"
#include "test_contracts.hpp"

namespace {

using stf::stats::Mt19937_64;
using stf::stats::Rng;
namespace simd = stf::core::simd;

// Restores the SIMD kill switch to its environment default on scope exit.
struct SimdGuard {
  ~SimdGuard() { simd::clear_enabled_override(); }
};

// ------------------------------------------------------------------- Rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i)
    any_diff |= a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0);
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(11);
  auto v = rng.normal_vector(20000, 5.0, 2.0);
  EXPECT_NEAR(stf::stats::mean(v), 5.0, 0.1);
  EXPECT_NEAR(stf::stats::stddev(v), 2.0, 0.1);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(13);
  auto p = rng.permutation(50);
  std::vector<bool> seen(50, false);
  for (auto i : p) {
    ASSERT_LT(i, 50u);
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

// ------------------------------------------------------- stream pinning --

// FNV-1a over value bit patterns: any change in a value, its order or the
// number of engine words a draw consumes changes the digest.
class StreamDigest {
 public:
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

struct PinnedStream {
  std::uint64_t digest;
  int tail_draws;  // |z| beyond the ziggurat's base strip edge (3.654...)
};

// 100 000 normals run the wedge path (~1% of draws) about a thousand times
// and the tail path (~1 in 4000) a few dozen times; the std distributions
// behind uniform, uniform_int, bernoulli and permutation follow.
PinnedStream pinned_stream(Rng rng) {
  StreamDigest d;
  int tail = 0;
  for (int i = 0; i < 100000; ++i) {
    const double z = rng.normal(0.0, 1.0);
    tail += std::fabs(z) > 3.6541528853610088 ? 1 : 0;
    d.add(z);
  }
  for (int i = 0; i < 2000; ++i) d.add(rng.uniform(-1.0, 1.0));
  for (int i = 0; i < 2000; ++i)
    d.add(static_cast<std::uint64_t>(rng.uniform_int(0, 99)));
  for (int i = 0; i < 2000; ++i)
    d.add(static_cast<std::uint64_t>(rng.bernoulli(0.3)));
  for (const std::size_t p : rng.permutation(50))
    d.add(static_cast<std::uint64_t>(p));
  return {d.value(), tail};
}

TEST(RngStreamPin, GoldenDigestsOfDefaultSeed42AndDerivedStreams) {
  // Every seeded experiment, lot digest and golden GA result rests on these
  // streams; a change to the engine or the ziggurat must leave them bitwise.
  const PinnedStream a = pinned_stream(Rng());
  const PinnedStream b = pinned_stream(Rng(42));
  const PinnedStream c = pinned_stream(Rng(123).derive(7));
  EXPECT_EQ(a.digest, 0xA80CD4C78895EDE5ULL);
  EXPECT_EQ(b.digest, 0xA565902272540E9EULL);
  EXPECT_EQ(c.digest, 0xAAA9C29CD1E142CDULL);
  for (const PinnedStream& s : {a, b, c}) EXPECT_GT(s.tail_draws, 5);
}

// ------------------------------------------------------------ Mt19937_64 --

static_assert(sizeof(Mt19937_64) == sizeof(std::mt19937_64),
              "Rng's engine stays 312 words plus an index");

TEST(Mt19937_64, TenThousandthOutputIsTheStandardsValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 produces 9981545732273789042.
  Mt19937_64 engine(5489);
  Mt19937_64::result_type v = 0;
  for (int i = 0; i < 10000; ++i) v = engine();
  EXPECT_EQ(v, 9981545732273789042ULL);
}

TEST(Mt19937_64, MatchesStdMt19937_64AcrossBlockBoundaries) {
  // 1000 draws per seed cross three 312-word twists, which run in integer
  // lanes with SIMD on and in the scalar loop with it off.
  SimdGuard guard;
  for (const bool simd_on : {true, false}) {
    simd::set_enabled(simd_on);
    Rng seeds(99);
    for (int s = 0; s < 50; ++s) {
      const std::uint64_t seed = s == 0 ? 0 : seeds.engine()();
      Mt19937_64 ours(seed);
      std::mt19937_64 ref(seed);
      for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(ours(), ref())
            << "seed " << seed << " draw " << i << " simd " << simd_on;
    }
  }
}

TEST(Mt19937_64, SeedPendingLeavesEveryEngineOnItsStdStream) {
  // Sets of 1-9 streams seeded together, some of them already drawn from:
  // seed_pending must seed only the fresh ones, in groups of four and then
  // one by one, and leave every engine where std::mt19937_64 would be. The
  // vector's reallocations copy engines both before and after seeding.
  for (std::size_t size = 1; size <= 9; ++size) {
    std::vector<Rng> rngs;
    std::vector<std::mt19937_64> refs;
    for (std::size_t i = 0; i < size; ++i) {
      rngs.push_back(Rng(31 + size).derive(i));
      refs.emplace_back(rngs.back().seed());
      if (i % 3 == 1) {  // this stream has drawn before the set is seeded
        for (std::size_t d = 0; d < 5 * i; ++d)
          ASSERT_EQ(rngs[i].engine()(), refs[i]());
      }
    }
    Rng::seed_pending(rngs);
    for (std::size_t i = 0; i < size; ++i)
      for (int d = 0; d < 700; ++d)
        ASSERT_EQ(rngs[i].engine()(), refs[i]())
            << "set of " << size << " stream " << i << " draw " << d;
  }
  // A repeated engine seeds once.
  Mt19937_64 a(7);
  Mt19937_64 b(8);
  Mt19937_64* const twice[] = {&a, &b, &a};
  Mt19937_64::seed_pending(twice);
  std::mt19937_64 ref_a(7);
  std::mt19937_64 ref_b(8);
  for (int d = 0; d < 400; ++d) {
    ASSERT_EQ(a(), ref_a());
    ASSERT_EQ(b(), ref_b());
  }
}

// add_normal's contract: x[k * stride] += normal(0.0, sigma) in order for
// every k, every other element untouched, the same engine words consumed.
// Checked from every start offset in the engine's 312-word block, so the
// lane path's groups meet the block end at every phase, with SIMD on (the
// lane path) and off (the scalar loop).
void expect_add_normal_matches_scalar_loop(std::size_t stride) {
  SimdGuard guard;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const bool simd_on : {true, false}) {
    simd::set_enabled(simd_on);
    for (std::size_t offset = 0; offset < 312; ++offset) {
      for (const std::size_t n :
           {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 802, 5000}) {
        for (const double sigma : {0.0, 1e-3, nan}) {
          Rng bulk(2024 + n + offset);
          Rng scalar(2024 + n + offset);
          for (std::size_t d = 0; d < offset; ++d) {
            bulk.engine()();
            scalar.engine()();
          }
          std::vector<double> a(n);
          for (std::size_t k = 0; k < n; ++k)
            a[k] = 1e-3 * static_cast<double>(k);
          if (n != 0) a[0] = -0.0;  // -0.0 + (0.0 + 0.0 * z) is +0.0
          const std::vector<double> before = a;
          bulk.add_normal(a, sigma, stride);
          for (std::size_t k = 0; k < n; ++k) {
            const double want = k % stride == 0
                                    ? before[k] + scalar.normal(0.0, sigma)
                                    : before[k];
            ASSERT_EQ(std::bit_cast<std::uint64_t>(a[k]),
                      std::bit_cast<std::uint64_t>(want))
                << "stride " << stride << " offset " << offset << " n " << n
                << " sigma " << sigma << " simd " << simd_on << " k " << k;
          }
          ASSERT_EQ(bulk.engine()(), scalar.engine()())
              << "stride " << stride << " offset " << offset << " n " << n
              << " sigma " << sigma << " simd " << simd_on;
        }
      }
    }
  }
}

TEST(Rng, AddNormalMatchesTheScalarLoopBitwise) {
  expect_add_normal_matches_scalar_loop(1);
}

TEST(Rng, StridedAddNormalDrawsOneLaneInOrder) {
  // The device-lane capture path adds one device's noise into its lane of
  // an interleaved buffer: element k * stride gets the k-th draw of the
  // scalar loop, every other element stays untouched.
  for (const std::size_t stride : {1, 2, 3, 4, 5})
    expect_add_normal_matches_scalar_loop(stride);
}

TEST(Rng, AddNormalRejectsNegativeSigma) {
  Rng rng(5);
  std::vector<double> x(4, 0.0);
  EXPECT_CONTRACT_THROW(rng.add_normal(x, -1.0), std::invalid_argument);
  EXPECT_CONTRACT_THROW(rng.add_normal(x, 1.0, 0), std::invalid_argument);
}

// ----------------------------------------------------------- descriptive --

TEST(Descriptive, MeanVarianceKnown) {
  std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(stf::stats::mean(v), 5.0);
  EXPECT_NEAR(stf::stats::variance(v), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stf::stats::stddev_population(v), 2.0, 1e-12);
}

TEST(Descriptive, EmptyInputThrows) {
  std::vector<double> v;
  EXPECT_THROW(stf::stats::mean(v), std::invalid_argument);
  EXPECT_THROW(stf::stats::min(v), std::invalid_argument);
  EXPECT_THROW(stf::stats::max(v), std::invalid_argument);
}

TEST(Descriptive, MedianEvenAndOdd) {
  EXPECT_DOUBLE_EQ(stf::stats::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(stf::stats::median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Descriptive, PercentileEndpoints) {
  std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(stf::stats::percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(stf::stats::percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(stf::stats::percentile(v, 50.0), 25.0);
  EXPECT_CONTRACT_THROW(stf::stats::percentile(v, 101.0),
                        std::invalid_argument);
}

// --------------------------------------------------------------- sampling --

TEST(Sampling, UniformBoxRespectsBounds) {
  stf::stats::UniformBox box{{100.0, 1e-12, 50.0}, 0.2};
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    auto x = box.sample(rng);
    ASSERT_EQ(x.size(), 3u);
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_GE(x[d], box.lo(d));
      EXPECT_LE(x[d], box.hi(d));
    }
  }
}

// ---------------------------------------------------------------- metrics --

TEST(Metrics, PerfectPredictionHasZeroError) {
  std::vector<double> t{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(stf::stats::rms_error(t, t), 0.0);
  EXPECT_DOUBLE_EQ(stf::stats::std_error(t, t), 0.0);
  EXPECT_DOUBLE_EQ(stf::stats::max_abs_error(t, t), 0.0);
  EXPECT_DOUBLE_EQ(stf::stats::r_squared(t, t), 1.0);
}

TEST(Metrics, KnownResiduals) {
  std::vector<double> t{0.0, 0.0, 0.0, 0.0};
  std::vector<double> p{1.0, -1.0, 1.0, -1.0};
  EXPECT_DOUBLE_EQ(stf::stats::rms_error(t, p), 1.0);
  EXPECT_DOUBLE_EQ(stf::stats::max_abs_error(t, p), 1.0);
}

TEST(Metrics, StdErrorIgnoresConstantBias) {
  std::vector<double> t{1.0, 2.0, 3.0, 4.0};
  std::vector<double> p{2.0, 3.0, 4.0, 5.0};  // uniform +1 bias
  EXPECT_NEAR(stf::stats::std_error(t, p), 0.0, 1e-12);
  EXPECT_NEAR(stf::stats::rms_error(t, p), 1.0, 1e-12);
}

TEST(Metrics, RSquaredOfMeanPredictorIsZero) {
  std::vector<double> t{1.0, 2.0, 3.0, 4.0};
  std::vector<double> p(4, 2.5);  // predicting the mean
  EXPECT_NEAR(stf::stats::r_squared(t, p), 0.0, 1e-12);
}

TEST(Metrics, SizeMismatchThrows) {
  std::vector<double> a{1.0, 2.0};
  std::vector<double> b{1.0};
  EXPECT_CONTRACT_THROW(stf::stats::rms_error(a, b), std::invalid_argument);
}

}  // namespace

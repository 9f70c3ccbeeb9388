// Golden digests of the lot engine and the GA's sensitivity matrix.
//
// The lot checks elsewhere compare test_lot with the serial test_device
// loop of the same build, so a drift that moves both together passes them.
// These constants pin the outputs themselves: an FNV-1a hash over every
// disposition field of a 64-device clean lot and a 64-device faulted lot,
// and over the bit patterns of signature_sensitivity for two stimuli. Every
// lot entry point must land on the same constant, at any batch size and
// STF_THREADS, with SIMD on or off and in every SIMD backend -- and so must
// the same lots served by a SigtestServer over loopback and decoded by a
// SigtestClient.
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/lna900.hpp"
#include "core/parallel.hpp"
#include "core/simd.hpp"
#include "dsp/pwl.hpp"
#include "net/client.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "service/server.hpp"
#include "sigtest/batch.hpp"
#include "sigtest/sensitivity.hpp"
#include "stats/rng.hpp"

namespace {

using namespace stf;

/// FNV-1a, one byte at a time.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Kind, attempts, captures, predicted (length and bits), the outlier
/// score's bits and last_flaw of every disposition, in lot order.
std::uint64_t digest(std::span<const sigtest::TestDisposition> lot) {
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(lot.size()));
  for (const sigtest::TestDisposition& d : lot) {
    h.add(static_cast<std::int64_t>(d.kind));
    h.add(static_cast<std::int64_t>(d.attempts));
    h.add(static_cast<std::int64_t>(d.captures));
    h.add(static_cast<std::uint64_t>(d.predicted.size()));
    for (const double p : d.predicted) h.add(p);
    h.add(d.outlier_score);
    h.add(static_cast<std::int64_t>(d.last_flaw));
  }
  return h.value();
}

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n) { core::set_thread_count(n); }
  ~ThreadCountGuard() { core::set_thread_count(0); }
};

struct SimdGuard {
  ~SimdGuard() { core::simd::clear_enabled_override(); }
};

constexpr std::uint64_t kLotSeed = 20260817;
constexpr const char* kFaultSpec = "clip:0.12,contact:0.02:0.05";
// The server rebuilds a lot from this string: make_lna_population(64, 0.2,
// 4242), the devices Cell tests in process.
constexpr const char* kScenario = "lna:spread=0.2:pop=4242";

constexpr std::uint64_t kCleanLotDigest = 0xC08D960D59328B63ULL;
constexpr std::uint64_t kFaultedLotDigest = 0xBEEDFBFFD3FAE43BULL;
constexpr std::uint64_t kSensitivityDigestA = 0x55CE7C3B579F855FULL;
constexpr std::uint64_t kSensitivityDigestB = 0x6F03C4941178E471ULL;

struct Cell {
  // Shared so a SigtestServer can serve lots from the same calibration.
  std::shared_ptr<sigtest::BatchRuntime> shared;
  sigtest::BatchRuntime& runtime;
  std::vector<const rf::RfDut*> lot;
  std::vector<rf::DeviceRecord> devices;

  Cell()
      : shared(std::make_shared<sigtest::BatchRuntime>(
            sigtest::SignatureTestConfig::simulation_study(), stimulus(),
            circuit::LnaSpecs::names())),
        runtime(*shared),
        devices(rf::make_lna_population(64, 0.2, 4242)) {
    const auto cal = rf::make_lna_population(40, 0.2, 4141);
    stats::Rng cal_rng(11);
    runtime.calibrate(cal, cal_rng);
    for (const rf::DeviceRecord& d : devices) lot.push_back(d.dut.get());
  }

  static dsp::PwlWaveform stimulus() {
    const auto cfg = sigtest::SignatureTestConfig::simulation_study();
    return dsp::PwlWaveform::uniform(
        cfg.capture_s, {0.0, 0.25, -0.2, 0.15, -0.1, 0.2, 0.05, -0.15, 0.1});
  }

  std::vector<sigtest::TestDisposition> serial(
      const rf::FaultInjector* faults) const {
    const stats::Rng base(kLotSeed);
    std::vector<sigtest::TestDisposition> out(lot.size());
    for (std::size_t i = 0; i < lot.size(); ++i) {
      stats::Rng child = base.derive(i);
      out[i] = runtime.guarded().test_device(*lot[i], child, faults, i);
    }
    return out;
  }
};

const Cell& cell() {
  static const Cell c;
  return c;
}

void expect_lot_digest(const rf::FaultInjector* faults, std::uint64_t want) {
  SimdGuard simd_guard;
  const Cell& c = cell();
  for (const bool simd_on : {true, false}) {
    core::simd::set_enabled(simd_on);
    EXPECT_EQ(digest(c.serial(faults)), want)
        << "serial test_device loop, simd " << simd_on;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadCountGuard guard(threads);
      for (const std::size_t batch : {1, 5, 16}) {
        const sigtest::LotResult r =
            c.runtime.test_lot(c.lot, stats::Rng(kLotSeed), faults, 0,
                               sigtest::BatchOptions{batch});
        EXPECT_EQ(digest(r.dispositions), want)
            << "test_lot, threads " << threads << ", batch " << batch
            << ", simd " << simd_on;
      }
    }
  }
}

TEST(GoldenLotDigest, CleanLot) { expect_lot_digest(nullptr, kCleanLotDigest); }

TEST(GoldenLotDigest, FaultedLot) {
  const rf::FaultInjector faults = rf::FaultInjector::parse(kFaultSpec);
  expect_lot_digest(&faults, kFaultedLotDigest);
  // The faulted lot must exercise the retest and routing paths, or its
  // digest pins nothing about them.
  const auto d = cell().serial(&faults);
  std::size_t retested = 0;
  for (const auto& x : d) retested += x.attempts > 1 ? 1 : 0;
  EXPECT_GT(retested, 0u);
}

// The same lots requested from an in-process server on loopback: request
// seed kLotSeed, the scenario that names Cell's devices, first sequence 0.
void expect_wire_digest(const std::string& fault_spec, std::uint64_t want) {
  const Cell& c = cell();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadCountGuard guard(threads);
    service::ServerConfig config;
    config.poll_interval_ms = 5;
    service::SigtestServer server(c.shared, config);
    server.start();
    net::ClientOptions options;
    options.sleep_ms = [](int) {};
    options.response_timeout_ms = 30000;
    const net::SigtestClient client(server.port(), options);
    net::LotRequest request;
    request.request_id = 1;
    request.seed = kLotSeed;
    request.lot_size = static_cast<std::uint32_t>(c.lot.size());
    request.batch = 5;
    request.scenario = kScenario;
    request.fault_spec = fault_spec;
    const net::ClientLotResult served = client.run_lot(request);
    server.stop();
    ASSERT_EQ(served.status, net::ClientStatus::kOk) << served.message;
    EXPECT_EQ(digest(served.dispositions), want) << "threads " << threads;
  }
}

TEST(GoldenWireDigest, CleanLot) { expect_wire_digest("", kCleanLotDigest); }

TEST(GoldenWireDigest, FaultedLot) {
  expect_wire_digest(kFaultSpec, kFaultedLotDigest);
}

TEST(GoldenSensitivity, SignatureSensitivityBitsForTwoStimuli) {
  SimdGuard simd_guard;
  const auto config = sigtest::SignatureTestConfig::simulation_study();
  const sigtest::SignatureAcquirer acquirer(config, 16);
  const sigtest::PerturbationSet perturb(sigtest::lna900_factory(),
                                         circuit::Lna900::nominal(), 0.05);
  const auto a = dsp::PwlWaveform::uniform(
      config.capture_s, {0.0, 0.3, -0.3, 0.15, -0.15, 0.25, -0.25, 0.0});
  const auto b = dsp::PwlWaveform::uniform(
      config.capture_s, {0.1, -0.4, 0.35, 0.0, 0.2, -0.1, 0.3, -0.3, 0.05});
  for (const bool simd_on : {true, false}) {
    core::simd::set_enabled(simd_on);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadCountGuard guard(threads);
      for (const auto& [stimulus, want] :
           {std::pair{&a, kSensitivityDigestA},
            std::pair{&b, kSensitivityDigestB}}) {
        const la::Matrix a_s =
            perturb.signature_sensitivity(acquirer, *stimulus);
        Fnv1a h;
        h.add(static_cast<std::uint64_t>(a_s.rows()));
        h.add(static_cast<std::uint64_t>(a_s.cols()));
        for (std::size_t i = 0; i < a_s.size(); ++i) h.add(a_s.data()[i]);
        EXPECT_EQ(h.value(), want)
            << "threads " << threads << ", simd " << simd_on;
      }
    }
  }
}

}  // namespace

#include "sigtest/batch.hpp"

#include <algorithm>
#include <utility>

#include "core/arena.hpp"
#include "core/contracts.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"

namespace stf::sigtest {

namespace {

// Devices a pool thread tests together: four lane groups at the widest
// backend, and a bound on the capture arena a chunk takes whatever the
// batch size.
constexpr std::size_t kLaneBlock = 16;

}  // namespace

BatchRuntime::BatchRuntime(const SignatureTestConfig& config,
                           stf::dsp::PwlWaveform stimulus,
                           std::vector<std::string> spec_names,
                           GuardPolicy policy, BatchOptions batch,
                           CalibrationOptions cal_options,
                           std::size_t max_signature_bins)
    : guarded_(config, std::move(stimulus), std::move(spec_names), policy,
               cal_options, max_signature_bins),
      batch_(batch) {
  STF_REQUIRE(batch_.batch_size >= 1, "BatchRuntime: batch_size < 1");
}

void BatchRuntime::calibrate(
    const std::vector<stf::rf::DeviceRecord>& training, stf::stats::Rng& rng,
    int n_avg) {
  guarded_.calibrate(training, rng, n_avg);
}

LotResult BatchRuntime::test_lot(const std::vector<const stf::rf::RfDut*>& lot,
                                 const stf::stats::Rng& rng,
                                 const stf::rf::FaultInjector* faults,
                                 std::uint64_t first_sequence) const {
  return test_lot(lot, rng, faults, first_sequence, batch_);
}

LotResult BatchRuntime::test_lot(const std::vector<const stf::rf::RfDut*>& lot,
                                 const stf::stats::Rng& rng,
                                 const stf::rf::FaultInjector* faults,
                                 std::uint64_t first_sequence,
                                 const BatchOptions& batch) const {
  STF_TRACE_SPAN("batch.test_lot");
  STF_REQUIRE(batch.batch_size >= 1, "BatchRuntime::test_lot: batch_size < 1");
  STF_REQUIRE(guarded_.calibrated(), "BatchRuntime::test_lot: not calibrated");
  // Pin the calibration version ONCE for the whole lot: every device in it
  // screens and predicts on this snapshot, so a concurrent hot-swap never
  // mixes model versions inside a lot and the result stays bit-identical
  // to the serial reference run on the same version.
  const CalibrationVersion cal = guarded_.calibration();
  STF_REQUIRE(cal.model != nullptr && cal.screen != nullptr,
              "BatchRuntime::test_lot: not calibrated");
  LotResult result;
  result.model_version = cal.version;
  result.dispositions.resize(lot.size());
  if (lot.empty()) return result;
  for (const stf::rf::RfDut* dut : lot)
    STF_REQUIRE(dut != nullptr, "BatchRuntime::test_lot: null device");
  STF_COUNT("batch.lots");
  STF_COUNT("batch.devices", lot.size());

  // A pool thread claims batch_size devices and tests them attempt by
  // attempt, at most kLaneBlock at a time so the arena scratch stays
  // bounded. Device i runs on its own derived stream and fault sequence
  // and writes only its own slot, so how the pool splits the lot never
  // changes a disposition (see header).
  const std::size_t chunks =
      (lot.size() + batch.batch_size - 1) / batch.batch_size;
  stf::core::parallel_for(
      0, chunks,
      [&](std::size_t chunk) {
        const std::size_t begin = chunk * batch.batch_size;
        const std::size_t end =
            std::min(begin + batch.batch_size, lot.size());
        for (std::size_t lo = begin; lo < end; lo += kLaneBlock) {
          const std::size_t n = std::min(kLaneBlock, end - lo);
          stf::core::Arena& arena = stf::core::capture_arena();
          const stf::core::ArenaScope scope(arena);
          stf::core::ArenaVector<stf::stats::Rng> children{
              stf::core::ArenaAllocator<stf::stats::Rng>(&arena)};
          children.reserve(n);
          for (std::size_t i = lo; i < lo + n; ++i)
            children.push_back(rng.derive(first_sequence + i));
          guarded_.test_devices(cal, {lot.data() + lo, n},
                                {children.data(), n}, faults,
                                first_sequence + lo,
                                {result.dispositions.data() + lo, n});
        }
      },
      1);

  for (const TestDisposition& d : result.dispositions) {
    switch (d.kind) {
      case DispositionKind::kPredicted: ++result.predicted; break;
      case DispositionKind::kPredictedAfterRetry: ++result.retried; break;
      case DispositionKind::kRoutedToConventional: ++result.routed; break;
    }
  }
  return result;
}

LotResult BatchRuntime::test_lot(const std::vector<stf::rf::DeviceRecord>& lot,
                                 const stf::stats::Rng& rng,
                                 const stf::rf::FaultInjector* faults,
                                 std::uint64_t first_sequence) const {
  std::vector<const stf::rf::RfDut*> duts;
  duts.reserve(lot.size());
  for (const stf::rf::DeviceRecord& rec : lot) duts.push_back(rec.dut.get());
  return test_lot(duts, rng, faults, first_sequence);
}

}  // namespace stf::sigtest

#include "sigtest/batch.hpp"

#include <utility>

#include "core/contracts.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"

namespace stf::sigtest {

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

  // Device i runs the guarded test on its own derived stream and fault
  // sequence and writes only its own slot, so how the pool splits the lot
  // never changes a disposition (see header).
  stf::core::parallel_for(
      0, lot.size(),
      [&](std::size_t i) {
        const std::uint64_t sequence = first_sequence + i;
        stf::stats::Rng child = rng.derive(sequence);
        result.dispositions[i] =
            guarded_.test_device(cal, *lot[i], child, faults, sequence);
      },
      batch.batch_size);

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

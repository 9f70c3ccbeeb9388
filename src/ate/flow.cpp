#include "ate/flow.hpp"

#include <stdexcept>

#include "core/contracts.hpp"

namespace stf::ate {

double FlowResult::escape_rate() const {
  const int bad = true_fail + test_escape;
  return bad == 0 ? 0.0 : static_cast<double>(test_escape) / bad;
}

double FlowResult::yield_loss_rate() const {
  const int good = true_pass + yield_loss;
  return good == 0 ? 0.0 : static_cast<double>(yield_loss) / good;
}

FlowResult run_production_flow(
    const std::vector<std::vector<double>>& truth,
    const std::vector<std::vector<double>>& predicted,
    const std::vector<SpecLimit>& limits, double guard_band) {
  std::vector<stf::sigtest::TestDisposition> lot(predicted.size());
  for (std::size_t i = 0; i < lot.size(); ++i) {
    lot[i].kind = stf::sigtest::DispositionKind::kPredicted;
    lot[i].predicted = predicted[i];
  }
  return run_production_flow(truth, lot, limits, guard_band);
}

FlowResult run_production_flow(
    const std::vector<std::vector<double>>& truth,
    const std::vector<stf::sigtest::TestDisposition>& lot,
    const std::vector<SpecLimit>& limits, double guard_band) {
  using stf::sigtest::DispositionKind;
  STF_REQUIRE(truth.size() == lot.size(),
              "run_production_flow: device count mismatch");
  STF_REQUIRE(!limits.empty(), "run_production_flow: no limits");
  STF_REQUIRE(guard_band >= 0.0, "run_production_flow: negative guard band");

  auto passes_all = [&](const std::vector<double>& specs, double guard) {
    STF_REQUIRE(specs.size() == limits.size(),
                "run_production_flow: spec size mismatch");
    for (std::size_t s = 0; s < limits.size(); ++s) {
      SpecLimit l = limits[s];
      l.lower += guard;
      l.upper -= guard;
      if (!l.passes(specs[s])) return false;
    }
    return true;
  };

  FlowResult r;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const bool truly_good = passes_all(truth[i], 0.0);
    if (lot[i].kind == DispositionKind::kRoutedToConventional) {
      // Conventional per-spec measurement is exact: the part's decision is
      // its true decision. The cost is test time, never an escape.
      ++r.routed_conventional;
      if (truly_good)
        ++r.true_pass;
      else
        ++r.true_fail;
      continue;
    }
    if (lot[i].kind == DispositionKind::kPredictedAfterRetry) ++r.retested;
    const bool predicted_good = passes_all(lot[i].predicted, guard_band);
    if (truly_good && predicted_good)
      ++r.true_pass;
    else if (!truly_good && !predicted_good)
      ++r.true_fail;
    else if (!truly_good && predicted_good)
      ++r.test_escape;
    else
      ++r.yield_loss;
  }
  return r;
}

}  // namespace stf::ate

#include "rf/faults.hpp"

#include <cmath>
#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "core/env.hpp"

namespace stf::rf {

FaultSpec FaultSpec::lo_drift(double freq_err_hz, double phase_err_rad) {
  return {FaultKind::kLoDrift, freq_err_hz, phase_err_rad};
}
FaultSpec FaultSpec::clip(double rail_v) {
  return {FaultKind::kClip, rail_v, 0.0};
}
FaultSpec FaultSpec::stuck_sample(double probability) {
  return {FaultKind::kStuckSample, probability, 0.0};
}
FaultSpec FaultSpec::dropped_sample(double probability) {
  return {FaultKind::kDroppedSample, probability, 0.0};
}
FaultSpec FaultSpec::contact_noise(double probability, double amplitude_v) {
  return {FaultKind::kContactNoise, probability, amplitude_v};
}
FaultSpec FaultSpec::baseline_wander(double amplitude_v, double wander_hz) {
  return {FaultKind::kBaselineWander, amplitude_v, wander_hz};
}
FaultSpec FaultSpec::gain_drift(double drift_per_device) {
  return {FaultKind::kGainDrift, drift_per_device, 0.0};
}

namespace {

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLoDrift: return "lo";
    case FaultKind::kClip: return "clip";
    case FaultKind::kStuckSample: return "stuck";
    case FaultKind::kDroppedSample: return "drop";
    case FaultKind::kContactNoise: return "contact";
    case FaultKind::kBaselineWander: return "wander";
    case FaultKind::kGainDrift: return "gain";
  }
  return "?";
}

// The terms parse() knows: a name, its fault, and how many numbers it
// takes (a second one left out is 0).
struct FaultForm {
  const char* name;
  FaultKind kind;
  std::size_t takes;
};

constexpr FaultForm kFaultForms[] = {
    {"lo", FaultKind::kLoDrift, 2},
    {"clip", FaultKind::kClip, 1},
    {"stuck", FaultKind::kStuckSample, 1},
    {"drop", FaultKind::kDroppedSample, 1},
    {"contact", FaultKind::kContactNoise, 2},
    {"wander", FaultKind::kBaselineWander, 2},
    {"gain", FaultKind::kGainDrift, 1},
};

// The one check every fault passes before an injector holds it (parse, add
// and the vector constructor all come here): apply() feeds these
// parameters to std distributions whose preconditions they must meet, and
// a server parses them off the wire. Explicit throws, so the check stays in
// builds with SIGTEST_CHECKED=OFF.
void validate_fault(const FaultSpec& f) {
  const auto bad = [&f](const char* why) {
    std::ostringstream os;
    os << "FaultSpec " << kind_name(f.kind) << '(' << f.p1 << ", " << f.p2
       << "): " << why;
    throw std::invalid_argument(os.str());
  };
  if (!std::isfinite(f.p1) || !std::isfinite(f.p2))
    bad("parameters must be finite");
  switch (f.kind) {
    case FaultKind::kStuckSample:
    case FaultKind::kDroppedSample:
    case FaultKind::kContactNoise:
      // bernoulli_distribution(p) requires 0 <= p <= 1.
      if (!(f.p1 >= 0.0 && f.p1 <= 1.0)) bad("probability must be in [0, 1]");
      break;
    case FaultKind::kLoDrift:
      // uniform(-p, p) requires -p <= p and a finite width 2p.
      if (!(f.p1 >= 0.0 && f.p2 >= 0.0) || !std::isfinite(2.0 * f.p1) ||
          !std::isfinite(2.0 * f.p2))
        bad("LO error ranges must be >= 0 with a finite width");
      break;
    case FaultKind::kClip:
    case FaultKind::kBaselineWander:
    case FaultKind::kGainDrift:
      break;
  }
}

}  // namespace

FaultInjector::FaultInjector(std::vector<FaultSpec> faults)
    : faults_(std::move(faults)) {
  for (const FaultSpec& f : faults_) validate_fault(f);
}

void FaultInjector::add(const FaultSpec& fault) {
  validate_fault(fault);
  faults_.push_back(fault);
}

namespace {

void apply_one(const FaultSpec& f, std::span<double> x, double fs_hz,
               std::uint64_t sequence, stf::stats::Rng& rng) {
  const double dt = 1.0 / fs_hz;
  switch (f.kind) {
    case FaultKind::kLoDrift: {
      const double df = rng.uniform(-f.p1, f.p1);
      const double dphi = f.p2 > 0.0 ? rng.uniform(-f.p2, f.p2) : 0.0;
      for (std::size_t k = 0; k < x.size(); ++k)
        x[k] *= std::cos(2.0 * M_PI * df * static_cast<double>(k) * dt + dphi);
      break;
    }
    case FaultKind::kClip:
      for (double& v : x) v = std::min(std::max(v, -f.p1), f.p1);
      break;
    case FaultKind::kStuckSample:
      for (std::size_t k = 1; k < x.size(); ++k)
        if (rng.bernoulli(f.p1)) x[k] = x[k - 1];
      break;
    case FaultKind::kDroppedSample:
      for (double& v : x)
        if (rng.bernoulli(f.p1)) v = 0.0;
      break;
    case FaultKind::kContactNoise:
      for (double& v : x)
        if (rng.bernoulli(f.p1)) v += rng.bernoulli(0.5) ? f.p2 : -f.p2;
      break;
    case FaultKind::kBaselineWander: {
      const double phase = rng.uniform(0.0, 2.0 * M_PI);
      for (std::size_t k = 0; k < x.size(); ++k)
        x[k] += f.p1 * std::sin(2.0 * M_PI * f.p2 * static_cast<double>(k) * dt +
                                phase);
      break;
    }
    case FaultKind::kGainDrift: {
      const double g = 1.0 + f.p1 * static_cast<double>(sequence);
      for (double& v : x) v *= g;
      break;
    }
  }
}

}  // namespace

void FaultInjector::apply(std::span<double> capture, double fs_hz,
                          std::uint64_t sequence,
                          stf::stats::Rng& rng) const {
  STF_REQUIRE(fs_hz > 0.0, "FaultInjector::apply: fs_hz must be > 0");
  for (const FaultSpec& f : faults_) apply_one(f, capture, fs_hz, sequence, rng);
}

void FaultInjector::apply(std::vector<double>& capture, double fs_hz,
                          std::uint64_t sequence,
                          stf::stats::Rng& rng) const {
  apply(std::span<double>(capture), fs_hz, sequence, rng);
}

FaultInjector FaultInjector::parse(const std::string& spec) {
  FaultInjector inj;
  std::istringstream terms(spec);
  std::string term;
  while (std::getline(terms, term, ',')) {
    if (term.empty()) continue;
    std::istringstream fields(term);
    std::string name;
    std::getline(fields, name, ':');
    std::vector<double> p;
    std::string value;
    while (std::getline(fields, value, ':'))
      p.push_back(stf::core::env::parse_double(
          "FaultInjector::parse: '" + term + "'", value));
    if (p.empty())
      throw std::invalid_argument("FaultInjector::parse: '" + term +
                                  "' has no parameter (want name:p1[:p2])");
    const FaultForm* form = nullptr;
    for (const FaultForm& f : kFaultForms)
      if (name == f.name) form = &f;
    if (form == nullptr)
      throw std::invalid_argument(
          "FaultInjector::parse: unknown fault '" + name +
          "' (known: lo, clip, stuck, drop, contact, wander, gain)");
    if (p.size() > form->takes)
      throw std::invalid_argument(
          "FaultInjector::parse: '" + term + "' has " +
          std::to_string(p.size()) + " parameters; " + name + " takes " +
          std::to_string(form->takes));
    p.resize(2, 0.0);
    inj.add(FaultSpec{form->kind, p[0], p[1]});
  }
  return inj;
}

std::string FaultInjector::describe() const {
  if (faults_.empty()) return "none";
  std::ostringstream os;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (i != 0) os << " + ";
    const FaultSpec& f = faults_[i];
    os << kind_name(f.kind) << '(' << f.p1;
    if (f.p2 != 0.0) os << ", " << f.p2;
    os << ')';
  }
  return os.str();
}

}  // namespace stf::rf

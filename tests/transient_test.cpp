// Tests for the nonlinear transient engine against closed-form responses.
#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "circuit/ac.hpp"
#include "circuit/transient.hpp"
#include "dsp/spectrum.hpp"
#include "test_contracts.hpp"

namespace {

using namespace stf::circuit;

TEST(Transient, RcStepResponse) {
  // V -> R -> C: v_c(t) = V (1 - exp(-t/RC)).
  Netlist nl;
  nl.add_vsource("VS", "in", "0", 0.0);
  nl.add_resistor("R1", "in", "out", 1000.0);
  nl.add_capacitor("C1", "out", "0", 1e-6);  // tau = 1 ms
  TransientOptions opts;
  opts.t_stop = 5e-3;
  opts.dt = 10e-6;
  SourceWaveforms wf;
  // Strictly after t=0 so the initial DC point sees the pre-step level.
  wf["VS"] = [](double t) { return t > 0.0 ? 1.0 : 0.0; };
  const auto result = simulate_transient(nl, opts, wf);

  const NodeId out = 2;  // nodes are created in add order: in=1, out=2
  const double tau = 1e-3;
  for (std::size_t i = 10; i < result.steps(); i += 25) {
    const double t = result.time()[i];
    const double expected = 1.0 - std::exp(-t / tau);
    EXPECT_NEAR(result.at(i, out), expected, 5e-3) << "t=" << t;
  }
}

TEST(Transient, RcStartsFromDcOperatingPoint) {
  // With the source already at 1 V at t=0, nothing should move.
  Netlist nl;
  nl.add_vsource("VS", "in", "0", 1.0);
  nl.add_resistor("R1", "in", "out", 1000.0);
  nl.add_capacitor("C1", "out", "0", 1e-6);
  TransientOptions opts;
  opts.t_stop = 1e-3;
  opts.dt = 10e-6;
  const auto result = simulate_transient(nl, opts);
  for (std::size_t i = 0; i < result.steps(); i += 20)
    EXPECT_NEAR(result.at(i, 2), 1.0, 1e-9);
}

TEST(Transient, RlCurrentRise) {
  // V -> R -> L to ground: i(t) = V/R (1 - exp(-t R/L)); node between R
  // and L decays from V to 0.
  Netlist nl;
  nl.add_vsource("VS", "in", "0", 0.0);
  nl.add_resistor("R1", "in", "mid", 100.0);
  nl.add_inductor("L1", "mid", "0", 10e-3);  // tau = L/R = 100 us
  TransientOptions opts;
  opts.t_stop = 500e-6;
  opts.dt = 1e-6;
  SourceWaveforms wf;
  wf["VS"] = [](double t) { return t > 0.0 ? 1.0 : 0.0; };
  const auto result = simulate_transient(nl, opts, wf);
  const double tau = 10e-3 / 100.0;
  for (std::size_t i = 5; i < result.steps(); i += 50) {
    const double t = result.time()[i];
    // v_mid = V * exp(-t/tau) (voltage across the inductor).
    EXPECT_NEAR(result.at(i, 2), std::exp(-t / tau), 5e-3) << "t=" << t;
  }
}

TEST(Transient, LcTankRingsAtResonance) {
  // A parallel LC tank kicked through a large resistor (high Q) rings at
  // f0 = 1/(2 pi sqrt(LC)).
  Netlist nl;
  nl.add_vsource("VS", "in", "0", 0.0);
  nl.add_resistor("R1", "in", "tank", 1e6);  // Q = R sqrt(C/L) = 1000
  nl.add_capacitor("C1", "tank", "0", 1e-9);
  nl.add_inductor("L1", "tank", "0", 1e-3);  // f0 ~ 159 kHz
  TransientOptions opts;
  opts.t_stop = 60e-6;
  opts.dt = 20e-9;
  SourceWaveforms wf;
  wf["VS"] = [](double t) { return t > 0.0 ? 1.0 : 0.0; };  // step kick
  const auto result = simulate_transient(nl, opts, wf);
  const auto v = result.voltage(2);
  const double fs = 1.0 / opts.dt;
  const double f0 = 1.0 / (2.0 * std::numbers::pi * std::sqrt(1e-3 * 1e-9));
  // Energy concentrated near f0 rather than at half or double it.
  const double at_f0 = stf::dsp::tone_amplitude(v, f0, fs);
  EXPECT_GT(at_f0, 5.0 * stf::dsp::tone_amplitude(v, f0 / 2.0, fs));
  EXPECT_GT(at_f0, 5.0 * stf::dsp::tone_amplitude(v, f0 * 2.0, fs));
}

TEST(Transient, SineThroughResistorDivider) {
  // Memoryless circuit: output tracks the instantaneous divider ratio.
  Netlist nl;
  nl.add_vsource("VS", "in", "0", 0.0);
  nl.add_resistor("R1", "in", "out", 3000.0);
  nl.add_resistor("R2", "out", "0", 1000.0);
  TransientOptions opts;
  opts.t_stop = 1e-3;
  opts.dt = 1e-6;
  SourceWaveforms wf;
  wf["VS"] = [](double t) {
    return std::sin(2.0 * std::numbers::pi * 5e3 * t);
  };
  const auto result = simulate_transient(nl, opts, wf);
  for (std::size_t i = 0; i < result.steps(); i += 37) {
    const double t = result.time()[i];
    EXPECT_NEAR(result.at(i, 2),
                0.25 * std::sin(2.0 * std::numbers::pi * 5e3 * t), 1e-6);
  }
}

TEST(Transient, BjtAmplifierSmallSignalGainMatchesAc) {
  // A resistively-biased CE stage driven with a small low-frequency sine:
  // the transient output amplitude must match the AC analysis at the same
  // frequency (both engines linearize around the same operating point).
  Netlist nl;
  BjtParams p;
  p.vaf = 1e12;
  p.ikf = 1e12;
  nl.add_vsource("VCC", "vcc", "0", 3.0);
  nl.add_vsource("VS", "src", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("RS", "src", "nin", 50.0);
  nl.add_capacitor("CC", "nin", "b", 10e-6);
  nl.add_resistor("RB", "vcc", "b", 100e3);
  nl.add_resistor("RC", "vcc", "c", 200.0);
  nl.add_bjt("Q1", "c", "b", "0", p);

  TransientOptions opts;
  opts.t_stop = 2e-3;
  opts.dt = 0.5e-6;
  const double freq = 20e3;
  const double amp = 0.2e-3;  // well within small-signal
  SourceWaveforms wf;
  wf["VS"] = [=](double t) {
    return amp * std::sin(2.0 * std::numbers::pi * freq * t);
  };
  const auto result = simulate_transient(nl, opts, wf);

  const auto dc = solve_dc(nl);
  const AcAnalysis ac(nl, dc);
  const double gain_expected =
      std::abs(ac.solve(freq)[nl.node("c")]);

  // Measure output amplitude in the settled second half.
  const auto vc = result.voltage(nl.node("c"));
  std::vector<double> settled(vc.begin() + vc.size() / 2, vc.end());
  const double vout =
      stf::dsp::tone_amplitude(settled, freq, 1.0 / opts.dt);
  EXPECT_NEAR(vout / amp, gain_expected, 0.05 * gain_expected);
}

TEST(Transient, BjtClipsLargeSignal) {
  // Driving the same stage hard produces visible asymmetric distortion:
  // second-harmonic content emerges (exponential nonlinearity).
  Netlist nl;
  BjtParams p;
  nl.add_vsource("VCC", "vcc", "0", 3.0);
  nl.add_vsource("VS", "src", "0", 0.0);
  nl.add_resistor("RS", "src", "nin", 50.0);
  nl.add_capacitor("CC", "nin", "b", 10e-6);
  nl.add_resistor("RB", "vcc", "b", 100e3);
  nl.add_resistor("RC", "vcc", "c", 200.0);
  nl.add_bjt("Q1", "c", "b", "0", p);

  TransientOptions opts;
  opts.t_stop = 2e-3;
  opts.dt = 0.5e-6;
  const double freq = 20e3;
  SourceWaveforms wf;
  wf["VS"] = [=](double t) {
    return 30e-3 * std::sin(2.0 * std::numbers::pi * freq * t);
  };
  const auto result = simulate_transient(nl, opts, wf);
  const auto vc = result.voltage(nl.node("c"));
  std::vector<double> settled(vc.begin() + vc.size() / 2, vc.end());
  const double fs = 1.0 / opts.dt;
  const double fund = stf::dsp::tone_amplitude(settled, freq, fs);
  const double second = stf::dsp::tone_amplitude(settled, 2.0 * freq, fs);
  EXPECT_GT(second, 0.05 * fund);  // strong HD2 from the exponential
}

TEST(Transient, InvalidArgumentsThrow) {
  Netlist nl;
  nl.add_vsource("VS", "a", "0", 1.0);
  nl.add_resistor("R", "a", "0", 100.0);
  TransientOptions opts;
  opts.dt = 0.0;
  EXPECT_CONTRACT_THROW(simulate_transient(nl, opts), std::invalid_argument);
  opts.dt = 1e-6;
  opts.t_stop = 0.5e-6;  // t_stop <= dt
  EXPECT_CONTRACT_THROW(simulate_transient(nl, opts), std::invalid_argument);
  opts.t_stop = 1e-3;
  SourceWaveforms wf;
  wf["NOPE"] = [](double) { return 0.0; };
  EXPECT_THROW(simulate_transient(nl, opts, wf), std::invalid_argument);
  SourceWaveforms null_wf;
  null_wf["VS"] = nullptr;
  EXPECT_THROW(simulate_transient(nl, opts, null_wf), std::invalid_argument);
}

TEST(Transient, WaveformValidationErrorIsHashOrderIndependent) {
  // With several invalid entries the reported name must be the
  // lexicographically first one, not whichever the unordered_map's hash
  // seed happens to yield -- diagnostics are part of the reproducibility
  // contract (see tools/stf_analyze.py rule unordered-export).
  Netlist nl;
  nl.add_vsource("VS", "a", "0", 1.0);
  nl.add_resistor("R", "a", "0", 100.0);
  TransientOptions opts;
  opts.dt = 1e-6;
  opts.t_stop = 1e-3;
  SourceWaveforms wf;
  wf["ZZZ_BAD"] = [](double) { return 0.0; };
  wf["AAA_BAD"] = [](double) { return 0.0; };
  wf["MMM_BAD"] = [](double) { return 0.0; };
  try {
    simulate_transient(nl, opts, wf);
    FAIL() << "unknown waveform names must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("AAA_BAD"), std::string::npos)
        << "expected the lexicographically first bad name, got: " << e.what();
  }
}

TEST(Transient, TrapezoidalRuleBarelyDampsHighQTank) {
  // A parallel LC tank kicked through a 1 MOhm source resistor has
  // Q = R*sqrt(C/L) = 1000: over 16 ring cycles the physical amplitude
  // decay is ~5%. Trapezoidal integration is non-dissipative, so the
  // simulated decay must stay close to that physical value (backward Euler
  // would eat the oscillation numerically).
  Netlist nl;
  nl.add_vsource("VS", "in", "0", 0.0);
  nl.add_resistor("R1", "in", "tank", 1e6);
  nl.add_capacitor("C1", "tank", "0", 1e-9);
  nl.add_inductor("L1", "tank", "0", 1e-3);  // f0 ~ 159 kHz
  TransientOptions opts;
  opts.t_stop = 100e-6;
  opts.dt = 50e-9;
  SourceWaveforms wf;
  wf["VS"] = [](double t) { return t > 0.0 ? 1.0 : 0.0; };  // step kick
  const auto result = simulate_transient(nl, opts, wf);
  const auto v = result.voltage(2);

  // Peak amplitude in the first vs last quarter of the run (ignore the
  // tiny steady-state offset, which is < 1e-4 of the ring).
  auto peak = [&](std::size_t begin, std::size_t end) {
    double m = 0.0;
    for (std::size_t i = begin; i < end; ++i) m = std::max(m, std::abs(v[i]));
    return m;
  };
  const std::size_t n = v.size();
  const double first = peak(0, n / 4);
  const double last = peak(3 * n / 4, n);
  EXPECT_GT(first, 0.0);
  EXPECT_GT(last / first, 0.9);
}

}  // namespace

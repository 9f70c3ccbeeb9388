// Tests for the circuit engine: BJT model, DC, AC, noise, distortion.
#include <cmath>
#include <complex>

#include <gtest/gtest.h>

#include "circuit/ac.hpp"
#include "circuit/bjt.hpp"
#include "circuit/constants.hpp"
#include "circuit/dc.hpp"
#include "circuit/distortion.hpp"
#include "circuit/netlist.hpp"
#include "circuit/noise.hpp"
#include "circuit/rfmeasure.hpp"
#include "test_contracts.hpp"

namespace {

using namespace stf::circuit;

// ------------------------------------------------------------------- BJT --

TEST(Bjt, ZeroBiasZeroCurrent) {
  BjtParams p;
  double ic, ib;
  bjt_currents(p, 0.0, 0.0, &ic, &ib);
  EXPECT_NEAR(ic, 0.0, 1e-18);
  EXPECT_NEAR(ib, 0.0, 1e-18);
}

TEST(Bjt, IdealExponentialRegion) {
  // With huge Vaf/Ikf the model reduces to ic = is * exp(vbe/Vt).
  BjtParams p;
  p.vaf = 1e12;
  p.ikf = 1e12;
  double ic, ib;
  bjt_currents(p, 0.65, -2.0, &ic, &ib);
  const double expected = p.is * (std::exp(0.65 / kThermalVoltage) - 1.0);
  EXPECT_NEAR(ic / expected, 1.0, 1e-9);
  EXPECT_NEAR(ib * p.bf / expected, 1.0, 1e-9);
}

TEST(Bjt, EarlyEffectIncreasesIc) {
  BjtParams p;
  double ic_lo, ic_hi, ib;
  bjt_currents(p, 0.7, -1.0, &ic_lo, &ib);  // vce = 1.7
  bjt_currents(p, 0.7, -4.0, &ic_hi, &ib);  // vce = 4.7
  EXPECT_GT(ic_hi, ic_lo);
}

TEST(Bjt, HighInjectionReducesIc) {
  BjtParams weak_knee;
  weak_knee.ikf = 1e-3;  // knee well below the bias current
  BjtParams no_knee;
  no_knee.ikf = 1e12;
  double ic_k, ic_n, ib;
  bjt_currents(weak_knee, 0.75, -2.0, &ic_k, &ib);
  bjt_currents(no_knee, 0.75, -2.0, &ic_n, &ib);
  EXPECT_LT(ic_k, 0.7 * ic_n);
}

TEST(Bjt, GmMatchesIcOverVt) {
  // In the ideal region gm = Ic / Vt.
  BjtParams p;
  p.vaf = 1e12;
  p.ikf = 1e12;
  auto op = bjt_evaluate(p, 0.7, -2.0);
  EXPECT_NEAR(op.gm * kThermalVoltage / op.ic, 1.0, 1e-4);
}

TEST(Bjt, PowerSeriesMatchesExponential) {
  // For ic = Is exp(v/Vt): gm2 = gm/(2 Vt), gm3 = gm/(6 Vt^2).
  BjtParams p;
  p.vaf = 1e12;
  p.ikf = 1e12;
  auto op = bjt_evaluate(p, 0.68, -2.0);
  EXPECT_NEAR(op.gm2 / (op.gm / (2.0 * kThermalVoltage)), 1.0, 1e-3);
  EXPECT_NEAR(op.gm3 / (op.gm / (6.0 * kThermalVoltage * kThermalVoltage)),
              1.0, 1e-2);
}

TEST(Bjt, SafeExpDoesNotOverflow) {
  BjtParams p;
  double ic, ib;
  bjt_currents(p, 20.0, -1.0, &ic, &ib);  // absurd Newton trial point
  EXPECT_TRUE(std::isfinite(ic));
  EXPECT_TRUE(std::isfinite(ib));
}

TEST(Bjt, CurrentRisesWithTemperatureAtFixedVbe) {
  // Is(T) grows much faster than Vt: at fixed Vbe the collector current
  // increases strongly with temperature (the classic thermal-runaway
  // direction).
  BjtParams p;
  double ic_cold, ic_hot, ib;
  bjt_currents(p, 0.65, -2.0, &ic_cold, &ib, 250.0);
  bjt_currents(p, 0.65, -2.0, &ic_hot, &ib, 350.0);
  EXPECT_GT(ic_hot, 10.0 * ic_cold);
}

TEST(Bjt, NominalTemperatureIsDefault) {
  BjtParams p;
  double ic_a, ic_b, ib;
  bjt_currents(p, 0.7, -2.0, &ic_a, &ib);
  bjt_currents(p, 0.7, -2.0, &ic_b, &ib, kNominalTemperature);
  EXPECT_DOUBLE_EQ(ic_a, ic_b);
}

TEST(Dc, TemperatureShiftsBiasPoint) {
  // Base-current-biased stage: Vbe falls ~2 mV/K, so at fixed bias
  // resistor the base current (VCC - Vbe)/RB and hence Ic rise slightly
  // with temperature.
  auto ic_at = [](double kelvin) {
    Netlist nl;
    BjtParams p;
    nl.add_vsource("VCC", "vcc", "0", 3.0);
    nl.add_resistor("RB", "vcc", "b", 100e3);
    nl.add_resistor("RC", "vcc", "c", 100.0);
    nl.add_bjt("Q1", "c", "b", "0", p);
    nl.set_temperature(kelvin);
    return solve_dc(nl).bjt_op[0].ic;
  };
  const double ic_cold = ic_at(250.0);
  const double ic_hot = ic_at(400.0);
  EXPECT_GT(ic_hot, 1.02 * ic_cold);
  EXPECT_LT(ic_hot, 1.5 * ic_cold);  // resistor bias keeps it tame
}

TEST(Dc, InvalidTemperatureThrows) {
  Netlist nl;
  EXPECT_THROW(nl.set_temperature(0.0), std::invalid_argument);
  EXPECT_THROW(nl.set_temperature(-300.0), std::invalid_argument);
}

TEST(Bjt, CapacitancesTrackBias) {
  BjtParams p;
  auto op = bjt_evaluate(p, 0.7, -2.0);
  EXPECT_NEAR(op.cpi, p.cje + p.tf * op.gm, 1e-18);
  EXPECT_DOUBLE_EQ(op.cmu, p.cjc);
}

// --------------------------------------------------------------- Netlist --

TEST(Netlist, GroundAliases) {
  Netlist nl;
  EXPECT_EQ(nl.node("0"), 0);
  EXPECT_EQ(nl.node("gnd"), 0);
  EXPECT_EQ(nl.node_count(), 0u);
}

TEST(Netlist, NodeCreationAndLookup) {
  Netlist nl;
  const NodeId a = nl.node("a");
  const NodeId b = nl.node("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(nl.node("a"), a);
  EXPECT_EQ(nl.node_count(), 2u);
  EXPECT_EQ(nl.node_name(a), "a");
}

TEST(Netlist, BjtCreatesInternalBaseNode) {
  Netlist nl;
  nl.add_bjt("Q1", "c", "b", "e", BjtParams{});
  ASSERT_EQ(nl.bjts().size(), 1u);
  ASSERT_EQ(nl.resistors().size(), 1u);  // rb
  EXPECT_EQ(nl.resistors()[0].name, "Q1:rb");
  EXPECT_NE(nl.bjts()[0].b, nl.bjts()[0].b_ext);
}

TEST(Netlist, InvalidValuesThrow) {
  Netlist nl;
  EXPECT_THROW(nl.add_resistor("R", "a", "b", 0.0), std::invalid_argument);
  EXPECT_THROW(nl.add_capacitor("C", "a", "b", -1e-12),
               std::invalid_argument);
  EXPECT_THROW(nl.add_inductor("L", "a", "b", 0.0), std::invalid_argument);
  EXPECT_THROW(nl.vsource_index("nope"), std::invalid_argument);
}

TEST(Netlist, UnknownCounts) {
  Netlist nl;
  nl.add_vsource("V1", "a", "0", 1.0);
  nl.add_resistor("R1", "a", "b", 100.0);
  nl.add_inductor("L1", "b", "0", 1e-9);
  EXPECT_EQ(nl.node_count(), 2u);
  EXPECT_EQ(nl.unknown_count(), 4u);  // 2 nodes + vsrc branch + ind branch
}

// -------------------------------------------------------------------- DC --

TEST(Dc, VoltageDivider) {
  Netlist nl;
  nl.add_vsource("V1", "a", "0", 10.0);
  nl.add_resistor("R1", "a", "b", 6000.0);
  nl.add_resistor("R2", "b", "0", 4000.0);
  auto dc = solve_dc(nl);
  EXPECT_NEAR(dc.voltage(nl.node("b")), 4.0, 1e-6);
  // Source branch current: 10V across 10k = 1 mA (flowing out of +).
  EXPECT_NEAR(std::abs(dc.branch_i[0]), 1e-3, 1e-9);
}

TEST(Dc, CurrentSourceIntoResistor) {
  Netlist nl;
  nl.add_isource("I1", "0", "a", 2e-3);  // pushes 2 mA into node a
  nl.add_resistor("R1", "a", "0", 1000.0);
  auto dc = solve_dc(nl);
  EXPECT_NEAR(dc.voltage(nl.node("a")), 2.0, 1e-6);
}

TEST(Dc, InductorIsShort) {
  Netlist nl;
  nl.add_vsource("V1", "a", "0", 5.0);
  nl.add_resistor("R1", "a", "b", 1000.0);
  nl.add_inductor("L1", "b", "c", 1e-6);
  nl.add_resistor("R2", "c", "0", 1000.0);
  auto dc = solve_dc(nl);
  EXPECT_NEAR(dc.voltage(nl.node("b")), dc.voltage(nl.node("c")), 1e-9);
  EXPECT_NEAR(dc.voltage(nl.node("b")), 2.5, 1e-6);
}

TEST(Dc, CapacitorIsOpen) {
  Netlist nl;
  nl.add_vsource("V1", "a", "0", 5.0);
  nl.add_resistor("R1", "a", "b", 1000.0);
  nl.add_capacitor("C1", "b", "0", 1e-12);
  auto dc = solve_dc(nl);
  // No DC path through C: node b floats up to the source voltage.
  EXPECT_NEAR(dc.voltage(nl.node("b")), 5.0, 1e-3);
}

TEST(Dc, VccsGain) {
  Netlist nl;
  nl.add_vsource("V1", "in", "0", 0.5);
  nl.add_vccs("G1", "out", "0", "in", "0", 10e-3);  // i = 5 mA out of 'out'
  nl.add_resistor("RL", "out", "0", 1000.0);
  auto dc = solve_dc(nl);
  // Current flows op->on through the source, pulling node 'out' negative.
  EXPECT_NEAR(dc.voltage(nl.node("out")), -5.0, 1e-6);
}

TEST(Dc, BjtCurrentMirrorRatio) {
  // Diode-connected reference: with vaf/ikf huge, Ic/Ib == bf exactly.
  Netlist nl;
  BjtParams p;
  p.vaf = 1e12;
  p.ikf = 1e12;
  p.rb = 1e-3;
  nl.add_vsource("VB", "b", "0", 0.68);
  nl.add_vsource("VC", "c", "0", 2.0);
  nl.add_bjt("Q1", "c", "b", "0", p);
  auto dc = solve_dc(nl);
  ASSERT_EQ(dc.bjt_op.size(), 1u);
  EXPECT_NEAR(dc.bjt_op[0].ic / dc.bjt_op[0].ib, p.bf, p.bf * 1e-6);
}

TEST(Dc, BjtBiasPointKnownCurrent) {
  // Base current bias: Ib = (VCC - Vbe) / RB, Ic ~= bf * Ib.
  Netlist nl;
  BjtParams p;
  p.vaf = 1e12;
  p.ikf = 1e12;
  nl.add_vsource("VCC", "vcc", "0", 3.0);
  nl.add_resistor("RB", "vcc", "b", 100e3);
  nl.add_resistor("RC", "vcc", "c", 100.0);
  nl.add_bjt("Q1", "c", "b", "0", p);
  auto dc = solve_dc(nl);
  const double vbe = dc.voltage(nl.node("b"));
  const double expected_ib = (3.0 - vbe) / 100e3;
  EXPECT_NEAR(dc.bjt_op[0].ib / expected_ib, 1.0, 1e-3);
  EXPECT_NEAR(dc.bjt_op[0].ic / (p.bf * expected_ib), 1.0, 1e-2);
}

TEST(Dc, EmptyCircuitThrows) {
  Netlist nl;
  EXPECT_CONTRACT_THROW(solve_dc(nl), std::invalid_argument);
}

// -------------------------------------------------------------------- AC --

TEST(Ac, RcLowpassPole) {
  Netlist nl;
  nl.add_vsource("VS", "in", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("R1", "in", "out", 1000.0);
  nl.add_capacitor("C1", "out", "0", 1e-9);
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);
  const double fc = 1.0 / (2.0 * M_PI * 1000.0 * 1e-9);  // ~159 kHz
  auto v = ac.solve(fc);
  EXPECT_NEAR(std::abs(v[nl.node("out")]), 1.0 / std::sqrt(2.0), 1e-6);
  auto v_lo = ac.solve(fc / 1000.0);
  EXPECT_NEAR(std::abs(v_lo[nl.node("out")]), 1.0, 1e-4);
  auto v_hi = ac.solve(fc * 1000.0);
  EXPECT_LT(std::abs(v_hi[nl.node("out")]), 2e-3);
}

TEST(Ac, SeriesLcResonance) {
  // At resonance the series LC is a short: full source voltage on the load.
  Netlist nl;
  nl.add_vsource("VS", "in", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("R1", "in", "a", 50.0);
  nl.add_inductor("L1", "a", "b", 10e-9);
  nl.add_capacitor("C1", "b", "out", 3e-12);
  nl.add_resistor("RL", "out", "0", 50.0);
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);
  const double f0 = 1.0 / (2.0 * M_PI * std::sqrt(10e-9 * 3e-12));
  auto v = ac.solve(f0);
  EXPECT_NEAR(std::abs(v[nl.node("out")]), 0.5, 1e-6);
  // Well off resonance the series C dominates and blocks the signal.
  auto v_off = ac.solve(f0 / 10.0);
  EXPECT_LT(std::abs(v_off[nl.node("out")]), 0.15);
}

TEST(Ac, BjtLowFrequencyGain) {
  // Common emitter with ideal drive: |Av| = gm * RC at low frequency.
  Netlist nl;
  BjtParams p;
  p.vaf = 1e12;
  p.ikf = 1e12;
  p.rb = 1e-3;
  p.cje = 1e-18;
  p.tf = 1e-18;
  p.cjc = 1e-18;
  nl.add_vsource("VCC", "vcc", "0", 3.0);
  nl.add_vsource("VB", "b", "0", 0.68, {1.0, 0.0});
  nl.add_resistor("RC", "vcc", "c", 100.0, false);
  nl.add_bjt("Q1", "c", "b", "0", p);
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);
  auto v = ac.solve(1e3);
  const double av = std::abs(v[nl.node("c")]);
  EXPECT_NEAR(av / (dc.bjt_op[0].gm * 100.0), 1.0, 1e-3);
}

TEST(Ac, InjectionSuperposition) {
  // Injections are linear: doubling the current doubles the response.
  Netlist nl;
  nl.add_vsource("VS", "in", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("R1", "in", "out", 100.0);
  nl.add_resistor("R2", "out", "0", 100.0);
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);
  const NodeId out = nl.node("out");
  auto v1 = ac.solve_injections(1e6, {{0, out, {1.0, 0.0}}});
  auto v2 = ac.solve_injections(1e6, {{0, out, {2.0, 0.0}}});
  EXPECT_NEAR(std::abs(v2[out]), 2.0 * std::abs(v1[out]), 1e-9);
  // Injection into a 50-ohm parallel pair: v = i * (100 || 100) = 50.
  EXPECT_NEAR(std::abs(v1[out]), 50.0, 1e-6);
}

// ----------------------------------------------------------------- noise --

TEST(Noise, MatchedDividerIs3dB) {
  // Equal-resistor divider: the shunt resistor doubles the output noise
  // relative to the source alone -> F = 2 (3.01 dB).
  Netlist nl;
  nl.add_vsource("VS", "in", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("RS", "in", "out", 50.0);
  nl.add_resistor("RSH", "out", "0", 50.0);
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);
  auto r = noise_analysis(ac, 1e6, "RS", nl.node("out"));
  EXPECT_NEAR(r.noise_figure_db, 3.0103, 1e-3);
}

TEST(Noise, NoiselessLoadExcluded) {
  Netlist nl;
  nl.add_vsource("VS", "in", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("RS", "in", "out", 50.0);
  nl.add_resistor("RSH", "out", "0", 50.0, /*noisy=*/false);
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);
  auto r = noise_analysis(ac, 1e6, "RS", nl.node("out"));
  EXPECT_NEAR(r.noise_figure_db, 0.0, 1e-6);
}

TEST(Noise, LargerAttenuationMeansHigherNf) {
  auto nf_of = [](double rshunt) {
    Netlist nl;
    nl.add_vsource("VS", "in", "0", 0.0, {1.0, 0.0});
    nl.add_resistor("RS", "in", "out", 50.0);
    nl.add_resistor("RSH", "out", "0", rshunt);
    auto dc = solve_dc(nl);
    AcAnalysis ac(nl, dc);
    return noise_analysis(ac, 1e6, "RS", nl.node("out")).noise_figure_db;
  };
  EXPECT_GT(nf_of(10.0), nf_of(50.0));
  EXPECT_GT(nf_of(50.0), nf_of(500.0));
}

TEST(Noise, UnknownSourceResistorThrows) {
  Netlist nl;
  nl.add_vsource("VS", "in", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("R1", "in", "out", 50.0);
  nl.add_resistor("R2", "out", "0", 50.0);
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);
  EXPECT_THROW(noise_analysis(ac, 1e6, "nope", nl.node("out")),
               std::invalid_argument);
}

TEST(Noise, ShotNoiseRaisesNfOfActiveStage) {
  // A BJT stage must show NF > 0 dB (device noise on top of the source).
  Netlist nl;
  BjtParams p;
  nl.add_vsource("VCC", "vcc", "0", 3.0);
  nl.add_vsource("VS", "src", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("RS", "src", "nin", 50.0);
  // AC-coupled so the source does not disturb the bias point.
  nl.add_capacitor("CC", "nin", "b", 1e-6);
  nl.add_resistor("RB", "vcc", "b", 100e3);
  nl.add_resistor("RC", "vcc", "c", 500.0);
  nl.add_bjt("Q1", "c", "b", "0", p);
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);
  auto r = noise_analysis(ac, 10e6, "RS", nl.node("c"));
  EXPECT_GT(r.noise_figure_db, 0.5);
  EXPECT_LT(r.noise_figure_db, 20.0);
}

TEST(Noise, AdjointTransferMatchesDirectInjection) {
  // Interreciprocity check: w[to] - w[from] from one adjoint solve must
  // equal the direct injection transfer for every node pair.
  Netlist nl;
  BjtParams p;
  nl.add_vsource("VCC", "vcc", "0", 3.0);
  nl.add_vsource("VS", "src", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("RS", "src", "nin", 50.0);
  nl.add_capacitor("CC", "nin", "b", 1e-9);
  nl.add_resistor("RB", "vcc", "b", 100e3);
  nl.add_resistor("RC", "vcc", "c", 500.0);
  nl.add_bjt("Q1", "c", "b", "0", p);
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);
  const NodeId out = nl.node("c");
  const double freq = 50e6;
  const auto w = ac.solve_adjoint(freq, out);
  for (NodeId a = 0; a <= static_cast<NodeId>(nl.node_count()); ++a) {
    for (NodeId b = 0; b <= static_cast<NodeId>(nl.node_count()); ++b) {
      if (a == b) continue;
      const auto direct = ac.solve_injections(
          freq, {{a, b, Phasor(1.0, 0.0)}})[static_cast<std::size_t>(out)];
      const auto adjoint = w[static_cast<std::size_t>(b)] -
                           w[static_cast<std::size_t>(a)];
      EXPECT_NEAR(std::abs(direct - adjoint), 0.0,
                  1e-9 * (1.0 + std::abs(direct)))
          << "pair " << a << "->" << b;
    }
  }
}

TEST(Noise, AdjointRejectsBadOutputNode) {
  Netlist nl;
  nl.add_vsource("VS", "a", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("R", "a", "0", 100.0);
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);
  EXPECT_THROW(ac.solve_adjoint(1e6, 0), std::invalid_argument);
  EXPECT_THROW(ac.solve_adjoint(1e6, 99), std::invalid_argument);
}

// ------------------------------------------------------------ distortion --

// The classic exponential-device result: with ideal drive and no feedback,
// the input-referred IP3 voltage is sqrt(8)*Vt (~73 mV), independent of
// bias current.
TEST(Distortion, ExponentialDeviceIip3) {
  Netlist nl;
  BjtParams p;
  p.vaf = 1e12;
  p.ikf = 1e12;
  p.rb = 1e-6;
  p.bf = 1e9;  // no base-current nonlinearity
  p.cje = 1e-18;
  p.tf = 1e-18;
  p.cjc = 1e-18;
  nl.add_vsource("VCC", "vcc", "0", 3.0);
  nl.add_vsource("VS", "src", "0", 0.68, {1.0, 0.0});
  nl.add_resistor("RS", "src", "b", 1e-3);  // effectively ideal drive
  nl.add_resistor("RC", "vcc", "c", 50.0, false);
  nl.add_bjt("Q1", "c", "b", "0", p);
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);

  TwoToneSetup setup;
  setup.f1 = 1e6;
  setup.f2 = 1.1e6;
  setup.out_node = nl.node("c");
  setup.rl_ohms = 50.0;
  setup.rs_ohms = 50.0;
  auto r = two_tone_ip3(ac, setup);

  const double a_iip3 = std::sqrt(8.0) * kThermalVoltage;
  const double expected_dbm =
      10.0 * std::log10(a_iip3 * a_iip3 / (8.0 * 50.0) / 1e-3);
  EXPECT_NEAR(r.iip3_dbm, expected_dbm, 0.1);
}

TEST(Distortion, IndependentOfExcitationLevel) {
  // Volterra IP3 is an intercept: the reported value must not move with
  // the chosen input power.
  Netlist nl;
  BjtParams p;
  nl.add_vsource("VCC", "vcc", "0", 3.0);
  nl.add_vsource("VS", "src", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("RS", "src", "nin", 50.0);
  nl.add_capacitor("CC", "nin", "nb", 1e-6);
  nl.add_resistor("RB", "vcc", "nb", 100e3);
  nl.add_resistor("RC", "vcc", "c", 300.0, false);
  nl.add_bjt("Q1", "c", "nb", "0", p);
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);
  TwoToneSetup s;
  s.f1 = 10e6;
  s.f2 = 11e6;
  s.out_node = nl.node("c");
  s.input_dbm = -40.0;
  const double a = two_tone_ip3(ac, s).iip3_dbm;
  s.input_dbm = -20.0;
  const double b = two_tone_ip3(ac, s).iip3_dbm;
  EXPECT_NEAR(a, b, 1e-9);
}

TEST(Distortion, DegenerationImprovesIip3) {
  auto iip3_with_re = [](double re) {
    Netlist nl;
    BjtParams p;
    nl.add_vsource("VCC", "vcc", "0", 3.0);
    nl.add_vsource("VS", "src", "0", 0.0, {1.0, 0.0});
    nl.add_resistor("RS", "src", "nin", 50.0);
    nl.add_capacitor("CC", "nin", "nb", 1e-6);
    nl.add_resistor("RB", "vcc", "nb", 50e3);
    nl.add_resistor("RC", "vcc", "c", 300.0, false);
    nl.add_bjt("Q1", "c", "nb", "e", p);
    // Bypassed bias: RE degenerates the AC path only above DC -- keep it
    // un-bypassed so it linearizes the stage (the property under test).
    nl.add_resistor("RE", "e", "0", re, false);
    auto dc = solve_dc(nl);
    AcAnalysis ac(nl, dc);
    TwoToneSetup s;
    s.f1 = 10e6;
    s.f2 = 11e6;
    s.out_node = nl.node("c");
    return two_tone_ip3(ac, s).iip3_dbm;
  };
  const double no_degen = iip3_with_re(1e-3);
  const double some_degen = iip3_with_re(10.0);
  const double more_degen = iip3_with_re(30.0);
  EXPECT_GT(some_degen, no_degen + 3.0);
  EXPECT_GT(more_degen, some_degen);
}

TEST(Distortion, LinearCircuitHasNoIm3) {
  // A VCCS-only "amplifier" is perfectly linear: IM3 power is at the
  // numerical floor and the intercept is astronomically high.
  Netlist nl;
  nl.add_vsource("VS", "src", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("RS", "src", "in", 50.0);
  nl.add_resistor("RIN", "in", "0", 50.0);
  nl.add_vccs("G1", "out", "0", "in", "0", 50e-3);
  nl.add_resistor("RL", "out", "0", 50.0, false);
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);
  TwoToneSetup s;
  s.f1 = 10e6;
  s.f2 = 12e6;
  s.out_node = nl.node("out");
  auto r = two_tone_ip3(ac, s);
  EXPECT_GT(r.iip3_dbm, 80.0);
}

TEST(Distortion, BadSetupsThrow) {
  Netlist nl;
  nl.add_vsource("VS", "src", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("RS", "src", "out", 50.0);
  nl.add_resistor("RL", "out", "0", 50.0);
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);
  TwoToneSetup s;
  s.f1 = 12e6;
  s.f2 = 10e6;  // f1 >= f2
  s.out_node = nl.node("out");
  EXPECT_CONTRACT_THROW(two_tone_ip3(ac, s), std::invalid_argument);
  s.f1 = 10e6;
  s.f2 = 12e6;
  s.out_node = 0;
  EXPECT_CONTRACT_THROW(two_tone_ip3(ac, s), std::invalid_argument);
}

// ------------------------------------------------------------- rfmeasure --

TEST(RfMeasure, MatchedPassthroughIsZeroDbGain) {
  Netlist nl;
  nl.add_vsource("VS", "src", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("RS", "src", "out", 50.0);
  nl.add_resistor("RL", "out", "0", 50.0, false);
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);
  RfPort p;
  EXPECT_NEAR(transducer_gain_db(ac, 1e6, p), 0.0, 1e-9);
}

TEST(RfMeasure, UnknownOutputNodeThrows) {
  Netlist nl;
  nl.add_vsource("VS", "src", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("RS", "src", "a", 50.0);
  nl.add_resistor("RL", "a", "0", 50.0);
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);
  RfPort p;
  p.out_node = "nonexistent";
  EXPECT_THROW(transducer_gain_db(ac, 1e6, p), std::invalid_argument);
}

}  // namespace

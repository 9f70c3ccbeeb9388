// sigtest_cli: command-line driver for the signature-test framework.
//
// Subcommands:
//   sim-study  [--seed N] [--train N] [--val N]   Section 4.1 reproduction
//   hw-study   [--seed N]                         Section 4.2 reproduction
//   characterize [--temp KELVIN]                  nominal LNA datasheet
//   netlist-op  FILE                              DC operating point
//   netlist-ac  FILE FREQ_HZ [OUT_NODE]           AC node voltages
//   analog                                        baseband lineage demo
//   store-inspect DIR [--scenario S ...]          calibration store browser
//   store-evict   DIR --scenario S [--keep-from N]  prune old versions
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ate/flow.hpp"
#include "circuit/ac.hpp"
#include "circuit/dc.hpp"
#include "circuit/lna900.hpp"
#include "circuit/parser.hpp"
#include "circuit/sparams.hpp"
#include "common.hpp"
#include "core/env.hpp"
#include "core/telemetry.hpp"
#include "rf/faults.hpp"
#include "sigtest/analog.hpp"
#include "sigtest/cell.hpp"
#include "stats/rng.hpp"
#include "store/calibration_store.hpp"

namespace {

using namespace stf;

int usage() {
  std::fprintf(
      stderr,
      "usage: sigtest_cli <command> [options]\n"
      "  sim-study  [--seed N] [--train N] [--val N]   paper Sec. 4.1 flow\n"
      "             [--fault SPEC] [--guard]           fault-injected lot\n"
      "  hw-study   [--seed N]                         paper Sec. 4.2 flow\n"
      "  characterize [--temp KELVIN]                  nominal LNA specs\n"
      "  netlist-op  FILE                              DC operating point\n"
      "  netlist-ac  FILE FREQ_HZ                      AC node voltages\n"
      "  analog                                        baseband lineage\n"
      "  store-inspect DIR [--scenario S] [--device-type T] [--temp C]\n"
      "                     list a calibration store's keys and versions;\n"
      "                     with --scenario, load and describe each version\n"
      "  store-evict DIR --scenario S [--device-type T] [--temp C]\n"
      "              [--keep-from N]\n"
      "                     delete persisted versions older than N\n"
      "                     (default: keep only the newest version)\n"
      "global options (any command):\n"
      "  --trace-out FILE   write a Chrome trace_event JSON of the run\n"
      "                     (load in chrome://tracing or ui.perfetto.dev)\n"
      "  --stats            print the telemetry summary table on exit\n"
      "fault injection (sim-study):\n"
      "  --fault SPEC       corrupt production captures; SPEC is a comma-\n"
      "                     separated list of name:p1[:p2] terms with names\n"
      "                     lo, clip, stuck, drop, contact, wander, gain,\n"
      "                     e.g. --fault clip:0.1,contact:0.02:0.05\n"
      "  --guard            test the lot with the guarded runtime (capture\n"
      "                     validation, retry/escalation, outlier routing)\n"
      "                     instead of trusting every prediction\n"
      "  --batch N          with --guard: test the lot device-parallel on the\n"
      "                     worker pool (N devices per pool claim) and\n"
      "                     report devices/sec\n");
  return 2;
}

// Telemetry flags, filtered out of the argument list before command
// dispatch. Either flag turns collection on for the whole run.
struct TelemetryFlags {
  std::string trace_path;
  bool stats = false;
  bool any() const { return stats || !trace_path.empty(); }
};

TelemetryFlags extract_telemetry_flags(std::vector<std::string>& args) {
  TelemetryFlags flags;
  std::vector<std::string> kept;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--stats") {
      flags.stats = true;
    } else if (a.rfind("--trace-out=", 0) == 0) {
      flags.trace_path = a.substr(std::strlen("--trace-out="));
    } else if (a == "--trace-out" && i + 1 < args.size()) {
      flags.trace_path = args[++i];
    } else {
      kept.push_back(a);
    }
  }
  args = std::move(kept);
  return flags;
}

int write_telemetry_outputs(const TelemetryFlags& flags) {
  if (!flags.trace_path.empty()) {
    std::ofstream out(flags.trace_path);
    if (!out) {
      std::fprintf(stderr, "sigtest_cli: cannot write %s\n",
                   flags.trace_path.c_str());
      return 1;
    }
    out << stf::core::telemetry::chrome_trace();
    std::fprintf(stderr, "sigtest_cli: trace written to %s\n",
                 flags.trace_path.c_str());
  }
  if (flags.stats)
    std::fputs(stf::core::telemetry::summary().c_str(), stderr);
  return 0;
}

// A malformed command line: main prints the message, then the usage text.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

// The value after `key`, or null when the option is absent.
const std::string* opt_value(const std::vector<std::string>& args,
                             const std::string& key) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i)
    if (args[i] == key) return &args[i + 1];
  return nullptr;
}

// --key value string option lookup; returns fallback when absent.
std::string opt_str(const std::vector<std::string>& args,
                    const std::string& key, const std::string& fallback) {
  const std::string* value = opt_value(args, key);
  return value != nullptr ? *value : fallback;
}

// --key value integer option in [min_value, max_value]; returns fallback
// when absent. The whole value must be a decimal integer in range.
std::uint64_t opt_u64(const std::vector<std::string>& args,
                      const std::string& key, std::uint64_t fallback,
                      std::uint64_t min_value, std::uint64_t max_value) {
  const std::string* value = opt_value(args, key);
  if (value == nullptr) return fallback;
  try {
    return stf::core::env::parse_u64(key, *value, min_value, max_value);
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
}

// --key value number option; returns fallback when absent. The whole value
// must be a finite decimal number.
double opt_double(const std::vector<std::string>& args, const std::string& key,
                  double fallback) {
  const std::string* value = opt_value(args, key);
  if (value == nullptr) return fallback;
  try {
    return stf::core::env::parse_double(key, *value);
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
}

bool has_flag(const std::vector<std::string>& args, const std::string& key) {
  for (const auto& a : args)
    if (a == key) return true;
  return false;
}

// Production-lot pass under an optional fault scenario: every device of a
// 200-part lot is tested against datasheet limits on one cell, under
// GuardPolicy::unguarded() (trust every prediction) or, with --guard, the
// guarded policy (validate / retry / escalate / route).
int run_faulted_lot(const bench::SimStudyResult& study,
                    const rf::FaultInjector& faults, bool guard, int batch) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  const auto cal = rf::make_lna_population(100, 0.2, 42);
  const auto lot = rf::make_lna_population(200, 0.2, 77);
  const std::vector<ate::SpecLimit> limits = {
      {"gain_db", 14.2, 15.6},
      {"nf_db", -kInf, 3.2},
      {"iip3_dbm", -14.3, kInf},
  };

  std::printf("\nproduction lot: 200 devices, fault scenario %s, %s\n",
              faults.empty() ? "none" : faults.describe().c_str(),
              guard ? "guarded runtime" : "unguarded runtime");

  std::vector<std::vector<double>> truth;
  for (const auto& dev : lot) truth.push_back(dev.specs.to_vector());

  // --guard selects the cell's policy; the calibration does not depend on
  // it.
  sigtest::GuardPolicy guarded;
  guarded.outlier_threshold = 2.5;
  sigtest::BatchOptions bopts;
  if (batch > 0) bopts.batch_size = static_cast<std::size_t>(batch);
  sigtest::TestCell cell(cfg, study.stimulus, circuit::LnaSpecs::names(),
                         guard ? guarded : sigtest::GuardPolicy::unguarded(),
                         bopts);
  stats::Rng cal_rng(7);
  cell.calibrate(cal, cal_rng);
  const rf::FaultInjector* injected = faults.empty() ? nullptr : &faults;

  ate::FlowResult flow;
  if (guard && batch > 0) {
    // Lot engine: same guard semantics, the lot's devices tested side by
    // side on the worker pool, `batch` devices per claim.
    const stats::Rng lot_rng(9001);
    const auto t0 = std::chrono::steady_clock::now();
    const sigtest::LotResult result = cell.test_lot(lot, lot_rng, injected);
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    int retries = 0;
    for (const auto& d : result.dispositions) retries += d.attempts - 1;
    flow = ate::run_production_flow(truth, result.dispositions, limits, 0.25);
    std::printf("  batched pipeline: batch size %d, %.0f devices/sec\n", batch,
                sec > 0.0 ? static_cast<double>(result.devices()) / sec : 0.0);
    std::printf("  guard activity: %d retries, %zu routed to conventional,"
                " %d retested\n",
                retries, result.routed, flow.retested);
  } else {
    stats::Rng rng(9001);
    std::vector<sigtest::TestDisposition> dispositions;
    int retries = 0;
    for (std::size_t i = 0; i < lot.size(); ++i) {
      dispositions.push_back(cell.test_device(*lot[i].dut, rng, injected, i));
      retries += dispositions.back().attempts - 1;
    }
    flow = ate::run_production_flow(truth, dispositions, limits, 0.25);
    if (guard)
      std::printf("  guard activity: %d retries, %d routed to conventional,"
                  " %d retested\n",
                  retries, flow.routed_conventional, flow.retested);
  }
  std::printf("  pass %d, fail %d, escapes %d, yield loss %d"
              " (escape rate %.4f, yield-loss rate %.4f)\n",
              flow.true_pass, flow.true_fail, flow.test_escape,
              flow.yield_loss, flow.escape_rate(), flow.yield_loss_rate());
  return 0;
}

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
// Largest --train / --val population a study accepts.
constexpr std::uint64_t kMaxDevices = 1000000;

int cmd_sim_study(const std::vector<std::string>& args) {
  bench::SimStudyOptions opts;
  opts.population_seed = opt_u64(args, "--seed", 42, 0, kMaxU64);
  // Calibration and R^2 each need two devices.
  opts.n_train = opt_u64(args, "--train", 100, 2, kMaxDevices);
  opts.n_val = opt_u64(args, "--val", 25, 2, kMaxDevices);
  const std::string fault_spec = opt_str(args, "--fault", "");
  const bool guard = has_flag(args, "--guard");
  const int batch = static_cast<int>(
      opt_u64(args, "--batch", 0, 0, std::numeric_limits<int>::max()));
  // Parsed before the study, so a malformed spec costs no GA run.
  const auto faults = fault_spec.empty()
                          ? rf::FaultInjector{}
                          : rf::FaultInjector::parse(fault_spec);
  const auto result = bench::run_simulation_study(opts);
  std::printf("simulation study: %zu train / %zu validate, GA objective"
              " %.4e\n",
              opts.n_train, opts.n_val, result.ga_objective);
  for (const auto& spec : result.report.specs)
    bench::print_error_summary(spec, "");
  if (!fault_spec.empty() || guard)
    return run_faulted_lot(result, faults, guard, batch);
  return 0;
}

int cmd_hw_study(const std::vector<std::string>& args) {
  bench::HwStudyOptions opts;
  opts.population_seed = opt_u64(args, "--seed", 17, 0, kMaxU64);
  const auto result = bench::run_hardware_study(opts);
  std::printf("hardware study: 55 devices (28 cal / 27 val)\n");
  for (const auto& spec : result.report.specs)
    bench::print_error_summary(spec, "");
  return 0;
}

int cmd_characterize(const std::vector<std::string>& args) {
  const double kelvin = opt_double(args, "--temp", 290.0);
  auto nl = circuit::Lna900::build(circuit::Lna900::nominal());
  nl.set_temperature(kelvin);
  const auto dc = circuit::solve_dc(nl);
  const circuit::AcAnalysis ac(nl, dc);
  const auto port = circuit::Lna900::port();
  circuit::TwoPortSetup tp;
  tp.input_node = "nin";
  tp.output_node = "out";
  const auto s = circuit::s_parameters(ac, circuit::Lna900::kF0, tp);
  std::printf("900 MHz LNA at %.0f K:\n", kelvin);
  std::printf("  Ic    %8.3f mA\n", dc.bjt_op[0].ic * 1e3);
  std::printf("  gain  %8.2f dB\n",
              circuit::transducer_gain_db(ac, circuit::Lna900::kF0, port));
  std::printf("  NF    %8.2f dB\n",
              circuit::noise_figure_db(ac, circuit::Lna900::kF0, port));
  std::printf("  IIP3  %8.2f dBm\n",
              circuit::iip3_dbm(ac, circuit::Lna900::kF0,
                                circuit::Lna900::kF2, port));
  std::printf("  S11   %8.2f dB\n", s.s11_db());
  return 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

int cmd_netlist_op(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const auto nl = circuit::parse_netlist(read_file(args[0]));
  const auto dc = circuit::solve_dc(nl);
  std::printf("DC operating point (%d Newton iterations):\n", dc.iterations);
  for (std::size_t n = 1; n <= nl.node_count(); ++n)
    std::printf("  V(%s) = %.6g V\n",
                nl.node_name(static_cast<circuit::NodeId>(n)).c_str(),
                dc.v[n]);
  for (std::size_t q = 0; q < nl.bjts().size(); ++q)
    std::printf("  %s: Ic = %.4g A, Ib = %.4g A, gm = %.4g S\n",
                nl.bjts()[q].name.c_str(), dc.bjt_op[q].ic, dc.bjt_op[q].ib,
                dc.bjt_op[q].gm);
  return 0;
}

int cmd_netlist_ac(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const auto nl = circuit::parse_netlist(read_file(args[0]));
  const double freq = circuit::parse_spice_number(args[1]);
  const auto dc = circuit::solve_dc(nl);
  const circuit::AcAnalysis ac(nl, dc);
  const auto v = ac.solve(freq);
  std::printf("AC node voltages at %g Hz (magnitude / phase deg):\n", freq);
  for (std::size_t n = 1; n <= nl.node_count(); ++n)
    std::printf("  V(%s) = %.6g / %.2f\n",
                nl.node_name(static_cast<circuit::NodeId>(n)).c_str(),
                std::abs(v[n]), std::arg(v[n]) * 180.0 / M_PI);
  return 0;
}

int cmd_analog(const std::vector<std::string>&) {
  const auto pop = sigtest::make_filter_population(60, 0.2, 3);
  std::vector<sigtest::AnalogDeviceRecord> train(pop.begin(),
                                                 pop.begin() + 45);
  std::vector<sigtest::AnalogDeviceRecord> val(pop.begin() + 45, pop.end());
  sigtest::AnalogSignatureConfig cfg;
  const auto stim = dsp::PwlWaveform::uniform(
      cfg.capture_s,
      {0.0, 0.8, -0.6, 0.4, -0.9, 0.7, -0.2, 0.9, -0.7, 0.3, -0.4, 0.6, 0.0});
  sigtest::AnalogSignatureRuntime runtime(cfg, stim);
  stats::Rng rng(7);
  runtime.calibrate(train, rng);
  const auto rep = runtime.validate(val, rng);
  std::printf("baseband lineage (Sallen-Key filter, transient signature):\n");
  for (const sigtest::SpecScatter& spec : rep.specs)
    std::printf("  %-12s rms %.4g, R^2 %.4f\n", spec.name.c_str(),
                spec.rms_error, spec.r_squared);
  return 0;
}

/// Shared flag grammar of the store subcommands: DIR first, then the key
/// fields. Returns false on malformed input, naming a malformed number on
/// stderr; the caller prints usage.
bool parse_store_args(const std::vector<std::string>& args, std::string* root,
                      stf::store::StoreKey* key, bool* key_given,
                      std::uint64_t* keep_from) {
  if (args.empty()) return false;
  *root = args[0];
  *key_given = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--scenario" && i + 1 < args.size()) {
      key->scenario = args[++i];
      *key_given = true;
    } else if (a == "--device-type" && i + 1 < args.size()) {
      key->device_type = args[++i];
    } else if (a == "--temp" && i + 1 < args.size()) {
      const std::string& text = args[++i];
      const char* last = text.data() + text.size();
      const auto [ptr, ec] =
          std::from_chars(text.data(), last, key->temp_bin_c);
      if (ec != std::errc() || ptr != last) {
        std::fprintf(stderr, "--temp: expected an integer, got \"%s\"\n",
                     text.c_str());
        return false;
      }
    } else if (keep_from != nullptr && a == "--keep-from" &&
               i + 1 < args.size()) {
      try {
        *keep_from = stf::core::env::parse_u64(
            "--keep-from", args[++i], 0,
            std::numeric_limits<std::uint64_t>::max());
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return false;
      }
    } else {
      return false;
    }
  }
  return true;
}

int cmd_store_inspect(const std::vector<std::string>& args) {
  std::string root;
  stf::store::StoreKey key;
  bool key_given = false;
  if (!parse_store_args(args, &root, &key, &key_given, nullptr))
    return usage();
  stf::store::CalibrationStore cal_store(root);

  if (!key_given) {
    const auto keys = cal_store.keys();
    std::printf("%zu key(s) under %s\n", keys.size(), root.c_str());
    for (const auto& k : keys) {
      const auto versions = cal_store.versions(k);
      std::printf("  %-48s versions 1..%llu (%zu on disk)\n",
                  k.canonical().c_str(),
                  static_cast<unsigned long long>(cal_store.latest_version(k)),
                  versions.size());
    }
    return 0;
  }

  const auto versions = cal_store.versions(key);
  if (versions.empty()) {
    std::fprintf(stderr, "store-inspect: no versions for %s\n",
                 key.canonical().c_str());
    return 1;
  }
  std::printf("%s: %zu version(s)\n", key.canonical().c_str(),
              versions.size());
  for (const std::uint64_t v : versions) {
    const auto stored = cal_store.get(key, v);
    std::printf("  v%-4llu signature %zu bins -> %zu specs, screen %s\n",
                static_cast<unsigned long long>(v),
                stored.model->signature_length(), stored.model->n_specs(),
                stored.screen != nullptr ? "yes" : "no");
  }
  return 0;
}

int cmd_store_evict(const std::vector<std::string>& args) {
  std::string root;
  stf::store::StoreKey key;
  bool key_given = false;
  std::uint64_t keep_from = 0;
  if (!parse_store_args(args, &root, &key, &key_given, &keep_from) ||
      !key_given)
    return usage();
  stf::store::CalibrationStore cal_store(root);
  const std::uint64_t latest = cal_store.latest_version(key);
  if (latest == 0) {
    std::fprintf(stderr, "store-evict: no versions for %s\n",
                 key.canonical().c_str());
    return 1;
  }
  if (keep_from == 0) keep_from = latest;  // default: keep only the newest
  const std::size_t removed = cal_store.prune(key, keep_from);
  std::printf("%s: removed %zu version(s), kept %llu..%llu\n",
              key.canonical().c_str(), removed,
              static_cast<unsigned long long>(keep_from),
              static_cast<unsigned long long>(latest));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  const TelemetryFlags telem = extract_telemetry_flags(args);
  if (telem.any()) {
    if (!stf::core::telemetry::compiled())
      std::fprintf(stderr,
                   "sigtest_cli: built with SIGTEST_TELEMETRY=OFF; trace and "
                   "stats output will be empty\n");
    stf::core::telemetry::set_enabled(true);
  }

  int rc = 0;
  try {
    if (cmd == "sim-study") rc = cmd_sim_study(args);
    else if (cmd == "hw-study") rc = cmd_hw_study(args);
    else if (cmd == "characterize") rc = cmd_characterize(args);
    else if (cmd == "netlist-op") rc = cmd_netlist_op(args);
    else if (cmd == "netlist-ac") rc = cmd_netlist_ac(args);
    else if (cmd == "analog") rc = cmd_analog(args);
    else if (cmd == "store-inspect") rc = cmd_store_inspect(args);
    else if (cmd == "store-evict") rc = cmd_store_evict(args);
    else return usage();
  } catch (const UsageError& e) {
    std::fprintf(stderr, "sigtest_cli: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sigtest_cli: %s\n", e.what());
    rc = 1;
  }
  if (telem.any() && rc == 0) rc = write_telemetry_outputs(telem);
  return rc;
}

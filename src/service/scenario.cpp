#include "service/scenario.hpp"

#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/contracts.hpp"
#include "core/env.hpp"

namespace stf::service {

namespace {

double parse_spread(const std::string& value) {
  // Locale-independent (env::parse_double reads through std::from_chars),
  // so every canonical() form -- always '.'-formatted via to_chars --
  // re-parses exactly under any process locale.
  const double spread = stf::core::env::parse_double("scenario: spread", value);
  if (spread < 0.0 || spread >= 1.0)
    throw std::invalid_argument("scenario: spread must be in [0, 1), got '" +
                                value + "'");
  return spread;
}

}  // namespace

std::string ScenarioSpec::canonical() const {
  // Shortest round-trip spread: "0.1" stays "0.1", yet every distinct
  // double keys a distinct cache entry.
  char spread_text[32];
  const auto [end, ec] = std::to_chars(
      spread_text, spread_text + sizeof(spread_text), spread);
  STF_REQUIRE(ec == std::errc(), "canonical: spread formatting failed");
  std::ostringstream out;
  out << "lna:spread=" << std::string_view(spread_text, end) << ":pop="
      << pop_seed;
  return out.str();
}

ScenarioSpec parse_scenario(const std::string& text) {
  std::stringstream stream(text);
  std::string term;
  if (!std::getline(stream, term, ':') || term != "lna")
    throw std::invalid_argument("scenario: unknown family '" + term +
                                "' (supported: lna)");
  ScenarioSpec spec;
  while (std::getline(stream, term, ':')) {
    const std::size_t eq = term.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("scenario: term '" + term +
                                  "' is not key=value");
    const std::string key = term.substr(0, eq);
    const std::string value = term.substr(eq + 1);
    if (key == "spread") {
      spec.spread = parse_spread(value);
    } else if (key == "pop") {
      // env::parse_u64 gives the same reject-before-wrap guarantees the
      // STF_* knobs get; the "variable" name labels the scenario key.
      spec.pop_seed = stf::core::env::parse_u64(
          "scenario pop", value, 0, std::numeric_limits<std::uint64_t>::max());
    } else {
      throw std::invalid_argument("scenario: unknown key '" + key + "'");
    }
  }
  return spec;
}

std::vector<stf::rf::DeviceRecord> build_population(const ScenarioSpec& spec,
                                                    std::size_t devices) {
  STF_REQUIRE(devices >= 1, "build_population: devices < 1");
  return stf::rf::make_lna_population(devices, spec.spread, spec.pop_seed);
}

}  // namespace stf::service

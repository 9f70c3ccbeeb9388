// Scenario grammar of the signature-test service: the request's `scenario`
// string names a device population the server can reproduce from scratch,
// so a lot request is a pure value -- (seed, lot_size, scenario,
// fault_spec) -- and any server instance computes the identical lot.
//
// Grammar: "lna[:key=value...]" with keys `spread` (uniform process spread
// fraction, default 0.2 -- the paper's +/-20%) and `pop` (population seed,
// default 77). Key order is free; unknown keys, bad numbers and unknown
// family names throw std::invalid_argument (the server maps that to a
// typed kBadRequest, never a dropped connection).
//
// Characterizing a population is ~lot_size circuit simulations, far
// heavier than testing the lot -- so the server keeps its materialized
// populations in a core::LruCache keyed by the normalized scenario and the
// lot size. Determinism is unaffected: a cache hit returns the same
// DeviceRecords the miss path would rebuild (make_lna_population is
// seed-deterministic).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rf/population.hpp"

namespace stf::service {

/// A parsed scenario: the population recipe.
struct ScenarioSpec {
  double spread = 0.2;        ///< Uniform process-parameter spread fraction.
  std::uint64_t pop_seed = 77;  ///< make_lna_population seed.

  /// Canonical text form (cache key; independent of input key order).
  std::string canonical() const;
};

/// Parse the request grammar. Throws std::invalid_argument with a message
/// suitable for a kBadRequest reject.
ScenarioSpec parse_scenario(const std::string& text);

/// Materialize the population for `spec` (devices() rows, characterized).
std::vector<stf::rf::DeviceRecord> build_population(const ScenarioSpec& spec,
                                                    std::size_t devices);

}  // namespace stf::service

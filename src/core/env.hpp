// Unified STF_* environment-variable parsing: one overflow-safe reader for
// every runtime knob the framework honors (STF_THREADS, STF_ARENA_BYTES,
// STF_SIMD, STF_TELEMETRY, STF_PORT, STF_MAX_CLIENTS, ...).
//
// Before this helper each subsystem parsed its own variable with its own
// failure mode -- the thread pool rejected garbage, the arena silently fell
// back to a default, the SIMD switch treated any unknown token as "on".
// Misconfiguration that is silently reinterpreted is exactly the kind of
// production surprise the robustness layers exist to prevent, so the policy
// is now uniform and strict:
//
//   * numeric values use the same reject-before-wrap digit accumulation as
//     the original parse_thread_count fix (2^64 + 1 can never alias back
//     into range), are range-checked, and throw std::invalid_argument
//     naming the variable on garbage, overflow, or out-of-range input;
//   * boolean flags accept exactly {0, off, false, no} / {1, on, true, yes}
//     (case-insensitive) and throw on anything else;
//   * an unset or empty variable always means "use the documented default".
//
// Throwing from an env read happens once, at subsystem start-up, never on a
// per-device hot path.
#pragma once

#include <cstdint>
#include <string>

namespace stf::core::env {

/// Overflow-safe decimal parse of `text` into [min_value, max_value].
/// Leading/trailing whitespace is ignored. Throws std::invalid_argument
/// naming `name` on empty input, a non-digit character, or a value that
/// overflows or leaves the range -- the accumulation rejects before the
/// multiply/add could wrap, so absurd values never alias into range.
std::uint64_t parse_u64(const std::string& name, const std::string& text,
                        std::uint64_t min_value, std::uint64_t max_value);

/// Locale-independent parse of all of `text` as a finite double, through
/// std::from_chars: '.' is the decimal point whatever the process locale,
/// and no whitespace, sign prefix '+' or trailing character is accepted.
/// Throws std::invalid_argument naming `name` on garbage, on a value
/// outside the double range, and on inf or nan.
double parse_double(const std::string& name, const std::string& text);

/// Boolean flag parse: {0, off, false, no} -> false and {1, on, true, yes}
/// -> true, case-insensitive, surrounding whitespace ignored. Anything else
/// throws std::invalid_argument naming `name`.
bool parse_flag(const std::string& name, const std::string& text);

/// Read environment variable `name` through parse_u64. Unset or empty
/// (after trimming) returns `fallback`; a present value must parse and be
/// in range or the call throws.
std::uint64_t read_u64(const char* name, std::uint64_t fallback,
                       std::uint64_t min_value, std::uint64_t max_value);

/// Read environment variable `name` through parse_flag. Unset or empty
/// (after trimming) returns `fallback`; a present value must be one of the
/// recognized tokens or the call throws.
bool read_flag(const char* name, bool fallback);

}  // namespace stf::core::env

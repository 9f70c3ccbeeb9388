// Versioned calibration store: the durable home of fitted calibration
// models (and their outlier screens), keyed by (scenario, device type,
// temperature bin).
//
// A production floor runs many test cells against many scenarios; each
// cell needs the calibration the characterization lab fitted for its
// exact (scenario, device-type, temperature) operating point, and the
// drift loop (recalibrate.hpp) keeps minting new versions of it. The
// store gives both a single contract:
//
//   * Versioned: put() never overwrites -- it appends version N+1, so a
//     regressed recalibration can be rolled back by simply loading the
//     previous version, and drift forensics can diff the model history.
//   * Atomic persistence: files are written to a temp name and
//     rename(2)d into place, so a crash mid-write leaves either the old
//     set of versions or the new one -- never a half-written file that a
//     later load would have to guess about.
//   * Typed failures: a corrupt, truncated, or hostile file loads as
//     StoreError / CalibrationParseError / ScreenParseError, never a
//     crash or a silently wrong model (the serialize/deserialize layer
//     is the hardened trust boundary; the store adds length-prefixed
//     framing on top so truncation is detected before parsing begins).
//
// Every get() reads the disk: the one in-memory layer in front of the
// store is service::RuntimeRegistry, which loads a scenario's version once
// and serves every later lot from the runtime it built.
//
// File layout under root():
//   <root>/<sanitized-key>/key.txt        the key's canonical fields
//   <root>/<sanitized-key>/v<N>.stfcal    one immutable version bundle
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "sigtest/calibration.hpp"
#include "sigtest/outlier.hpp"

namespace stf::store {

/// What a calibration is indexed by. `scenario` is the canonical scenario
/// string (service::ScenarioSpec::canonical()), `device_type` names the
/// DUT class, `temp_bin_c` is the test-floor temperature bin in degrees C
/// (calibrations are temperature-dependent on real RF testers).
struct StoreKey {
  std::string scenario;
  std::string device_type = "lna900";
  int temp_bin_c = 25;

  /// Human-readable unique key string: "scenario|device_type|tempC".
  std::string canonical() const;

  bool operator==(const StoreKey&) const = default;
};

/// Thrown on any store-level failure: unreadable root, missing key or
/// version, truncated or malformed bundle framing, or filesystem errors.
/// Model/screen *payload* corruption propagates as the parser's own typed
/// errors (CalibrationParseError / ScreenParseError).
struct StoreError : std::runtime_error {
  explicit StoreError(const std::string& what_arg)
      : std::runtime_error("CalibrationStore: " + what_arg) {}
};

/// One immutable stored calibration version.
struct StoredCalibration {
  std::shared_ptr<const stf::sigtest::CalibrationModel> model;
  /// Outlier screen fitted with the model; null when the version was
  /// persisted without one (model-only deployments).
  std::shared_ptr<const stf::sigtest::OutlierScreen> screen;
  std::uint64_t version = 0;
};

/// The versioned, atomically-persisted calibration store.
/// Thread-safe: every public method may be called concurrently.
class CalibrationStore {
 public:
  /// Sentinel version meaning "the newest persisted version".
  static constexpr std::uint64_t kLatest = 0;

  /// Creates root_dir if missing; throws StoreError when that fails.
  explicit CalibrationStore(std::string root_dir);

  /// Persist a new version of `key` (latest + 1) atomically and return
  /// its version number. The model must be fitted; `screen`, when given,
  /// must be fitted too.
  std::uint64_t put(
      const StoreKey& key,
      std::shared_ptr<const stf::sigtest::CalibrationModel> model,
      std::shared_ptr<const stf::sigtest::OutlierScreen> screen = nullptr);

  /// Load a version (kLatest = newest) from disk. Throws StoreError when
  /// the key/version does not exist or the bundle framing is damaged;
  /// CalibrationParseError / ScreenParseError when a payload is corrupt.
  StoredCalibration get(const StoreKey& key, std::uint64_t version = kLatest);

  /// Newest persisted version of `key`, or 0 when none exist.
  std::uint64_t latest_version(const StoreKey& key) const;

  /// All persisted versions of `key`, ascending.
  std::vector<std::uint64_t> versions(const StoreKey& key) const;

  /// Every key with at least one persisted version, sorted by canonical().
  std::vector<StoreKey> keys() const;

  /// Delete persisted versions of `key` strictly older than keep_from;
  /// returns the count deleted. Throws StoreError, deleting nothing, when
  /// keep_from is past the newest version: a prune never empties a key.
  std::size_t prune(const StoreKey& key, std::uint64_t keep_from);

  const std::string& root() const { return root_; }

 private:
  /// Directory of one key: sanitized fields + a hash tag so distinct keys
  /// never collide after sanitization.
  std::string key_dir(const StoreKey& key) const;
  static std::string bundle_text(const StoredCalibration& stored);
  static StoredCalibration parse_bundle(const std::string& text,
                                        std::uint64_t expect_version);
  std::uint64_t scan_latest(const std::string& dir) const;

  std::string root_;
  /// Serializes directory scans against writes, so put() numbers each
  /// version exactly once.
  mutable stf::core::Mutex mutex_;
};

}  // namespace stf::store

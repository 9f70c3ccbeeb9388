#include "sigtest/calibration.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/contracts.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"
#include "linalg/lstsq.hpp"
#include "stats/metrics.hpp"

namespace stf::sigtest {

CalibrationModel::CalibrationModel(CalibrationOptions options)
    : options_(options) {
  STF_REQUIRE(!(options_.poly_degree < 1 || options_.poly_degree > 3),
              "CalibrationModel: poly_degree must be 1, 2 or 3");
  STF_REQUIRE(options_.ridge_lambda >= 0.0,
              "CalibrationModel: ridge_lambda < 0");
}

std::vector<double> CalibrationModel::features(
    const Signature& signature) const {
  STF_REQUIRE(signature.size() == bin_mean_.size(),
              "CalibrationModel: signature length does not match training");
  const std::size_t m = signature.size();
  std::vector<double> f;
  f.reserve(1 + m * options_.poly_degree);
  f.push_back(1.0);  // bias
  std::vector<double> z(m);
  for (std::size_t i = 0; i < m; ++i)
    z[i] = bin_alive_[i] ? (signature[i] - bin_mean_[i]) / bin_scale_[i] : 0.0;
  // Degrees 1 and 2 use plain arithmetic: std::pow(z, 1) == z and
  // std::pow(z, 2) == z * z bit-exactly (both are correctly-rounded single
  // operations), and pow costs ~20x a multiply. Degree 3 keeps std::pow --
  // z * z * z rounds twice and would not match the historical values.
  for (std::size_t d = 1; d <= options_.poly_degree; ++d) {
    if (d == 1) {
      for (std::size_t i = 0; i < m; ++i) f.push_back(z[i]);
    } else if (d == 2) {
      for (std::size_t i = 0; i < m; ++i) f.push_back(z[i] * z[i]);
    } else {
      for (std::size_t i = 0; i < m; ++i)
        f.push_back(std::pow(z[i], static_cast<double>(d)));
    }
  }
  return f;
}

void CalibrationModel::fit(const stf::la::Matrix& signatures,
                           const stf::la::Matrix& specs,
                           const std::vector<double>& noise_var) {
  STF_TRACE_SPAN("cal.fit");
  STF_COUNT("cal.fits");
  const std::size_t n = signatures.rows();
  const std::size_t m = signatures.cols();
  STF_REQUIRE(n >= 2, "CalibrationModel::fit: n < 2");
  STF_REQUIRE(specs.rows() == n, "CalibrationModel::fit: row mismatch");
  STF_REQUIRE(!(!noise_var.empty() && noise_var.size() != m),
              "CalibrationModel::fit: noise_var length mismatch");
  const std::size_t n_specs = specs.cols();
  STF_REQUIRE(n_specs != 0, "CalibrationModel::fit: no specs");
  STF_ASSERT_FINITE("CalibrationModel::fit: non-finite signature matrix",
                    signatures.data(), signatures.size());
  STF_ASSERT_FINITE("CalibrationModel::fit: non-finite spec matrix",
                    specs.data(), specs.size());
  STF_ASSERT_FINITE("CalibrationModel::fit: non-finite noise variances",
                    noise_var);

  // Per-bin normalization: center on the training mean, scale by the
  // combined device variation + single-capture noise floor. Constant
  // noiseless bins get unit scale so they contribute a harmless zero
  // feature.
  bin_mean_.assign(m, 0.0);
  bin_scale_.assign(m, 1.0);
  bin_alive_.assign(m, true);
  for (std::size_t j = 0; j < m; ++j) {
    double mu = 0.0;
    for (std::size_t i = 0; i < n; ++i) mu += signatures(i, j);
    mu /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = signatures(i, j) - mu;
      var += d * d;
    }
    var /= static_cast<double>(n);
    bin_mean_[j] = mu;
    if (!noise_var.empty()) {
      // SNR screen: a bin carrying less device information than one
      // capture's noise is a liability, not a feature.
      const double snr2 = options_.min_bin_snr * options_.min_bin_snr;
      if (var < snr2 * noise_var[j]) bin_alive_[j] = false;
      var += noise_var[j];
    }
    bin_scale_[j] = var > 1e-30 ? std::sqrt(var) : 1.0;
  }

  // Target normalization.
  spec_mean_.assign(n_specs, 0.0);
  spec_scale_.assign(n_specs, 1.0);
  for (std::size_t s = 0; s < n_specs; ++s) {
    double mu = 0.0;
    for (std::size_t i = 0; i < n; ++i) mu += specs(i, s);
    mu /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = specs(i, s) - mu;
      var += d * d;
    }
    var /= static_cast<double>(n);
    spec_mean_[s] = mu;
    spec_scale_[s] = var > 1e-30 ? std::sqrt(var) : 1.0;
  }

  // Design matrix over normalized features (shared across specs).
  // Mark fitted_ early so features() accepts rows -- fit fully overwrites
  // the state below either way.
  const std::size_t n_features = 1 + m * options_.poly_degree;
  stf::la::Matrix design(n, n_features);
  for (std::size_t i = 0; i < n; ++i) {
    Signature row(m);
    for (std::size_t j = 0; j < m; ++j) row[j] = signatures(i, j);
    design.set_row(i, features(row));
  }

  // Per-spec ridge solves share the design matrix read-only and each write
  // a distinct weight row, so they fan out over the thread pool with
  // bit-identical results.
  weights_ = stf::la::Matrix(n_specs, n_features);
  stf::core::parallel_for(
      0, n_specs,
      [&](std::size_t s) {
        std::vector<double> target(n);
        for (std::size_t i = 0; i < n; ++i)
          target[i] = (specs(i, s) - spec_mean_[s]) / spec_scale_[s];
        weights_.set_row(
            s, stf::la::ridge(design, target, options_.ridge_lambda));
      },
      1);
  fitted_ = true;
}

// Private GEMV kernel: both public entry points (predict / predict_batch)
// validate fit state and sizes before dispatching here, and the pointers
// are always rows of matrices those callers sized.
// stf-analyze: allow(api-contract)
void CalibrationModel::predict_features_into(const double* f,
                                             double* out) const {
  const std::size_t n_specs = weights_.rows();
  const std::size_t n_features = weights_.cols();
  for (std::size_t s = 0; s < n_specs; ++s) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n_features; ++j)
      acc += weights_(s, j) * f[j];
    out[s] = acc * spec_scale_[s] + spec_mean_[s];
  }
}

void fit_from_captures(CalibrationModel& model, std::size_t n_devices,
                       const CaptureFn& capture, const SpecsFn& specs,
                       int n_avg, CaptureFitData* retained) {
  STF_TRACE_SPAN("cal.fit_from_captures");
  STF_REQUIRE(n_devices >= 2, "fit_from_captures: need >= 2 devices");
  STF_REQUIRE(n_avg >= 1, "fit_from_captures: n_avg < 1");
  STF_REQUIRE(!(!capture || !specs), "fit_from_captures: null callback");

  // Probe device 0 once to size the matrices.
  const Signature first = capture(0);
  const std::size_t m = first.size();
  const std::vector<double> first_specs = specs(0);
  const std::size_t n_specs = first_specs.size();
  STF_REQUIRE(!(m == 0 || n_specs == 0),
              "fit_from_captures: empty capture or specs");

  stf::la::Matrix signatures(n_devices, m);
  stf::la::Matrix spec_matrix(n_devices, n_specs);
  std::vector<double> noise_var(m, 0.0);
  std::size_t noise_dof = 0;

  for (std::size_t i = 0; i < n_devices; ++i) {
    std::vector<Signature> captures;
    captures.reserve(static_cast<std::size_t>(n_avg));
    // Reuse the probe capture for device 0 so budgets stay exact.
    if (i == 0) captures.push_back(first);
    while (captures.size() < static_cast<std::size_t>(n_avg)) {
      Signature s = capture(i);
      STF_REQUIRE(s.size() == m,
                  "fit_from_captures: ragged training set (capture size "
                  "changed between devices)");
      captures.push_back(std::move(s));
    }
    Signature mean(m, 0.0);
    for (const Signature& s : captures)
      for (std::size_t j = 0; j < m; ++j) mean[j] += s[j];
    for (double& v : mean) v /= static_cast<double>(captures.size());
    signatures.set_row(i, mean);
    if (n_avg >= 2) {
      for (const Signature& s : captures)
        for (std::size_t j = 0; j < m; ++j) {
          const double d = s[j] - mean[j];
          noise_var[j] += d * d;
        }
      noise_dof += captures.size() - 1;
    }
    const std::vector<double> p = specs(i);
    STF_REQUIRE(p.size() == n_specs,
                "fit_from_captures: ragged training set (spec size changed "
                "between devices)");
    spec_matrix.set_row(i, p);
  }

  if (noise_dof > 0) {
    for (double& v : noise_var) v /= static_cast<double>(noise_dof);
    model.fit(signatures, spec_matrix, noise_var);
  } else {
    noise_var.clear();
    model.fit(signatures, spec_matrix);
  }
  if (retained != nullptr) {
    retained->signatures = std::move(signatures);
    retained->noise_var = std::move(noise_var);
  }
}

std::vector<double> CalibrationModel::predict(
    const Signature& signature) const {
  STF_REQUIRE(fitted_, "CalibrationModel::predict: model not fitted");
  const std::vector<double> f = features(signature);
  std::vector<double> out(weights_.rows());
  predict_features_into(f.data(), out.data());
  return out;
}

stf::la::Matrix CalibrationModel::predict_batch(
    const stf::la::Matrix& signatures) const {
  STF_REQUIRE(fitted_, "CalibrationModel::predict_batch: model not fitted");
  STF_REQUIRE(signatures.cols() == bin_mean_.size(),
              "CalibrationModel::predict_batch: signature length mismatch");
  const std::size_t n = signatures.rows();
  const std::size_t n_features = weights_.cols();

  // Stage 1: the feature matrix, one features() row per signature (SoA
  // layout so the GEMV below streams both operands).
  stf::la::Matrix feats(n, n_features);
  Signature row(bin_mean_.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < row.size(); ++j) row[j] = signatures(i, j);
    feats.set_row(i, features(row));
  }

  // Stage 2: GEMV per row through the same kernel predict() uses. The
  // kernel may block across specs but keeps every spec's j-ascending
  // accumulation, so batched results stay bit-identical to the serial
  // path -- do not reorder the j loop.
  stf::la::Matrix out(n, weights_.rows());
  for (std::size_t i = 0; i < n; ++i)
    predict_features_into(feats.row_ptr(i), out.row_ptr(i));
  return out;
}

std::string CalibrationModel::serialize() const {
  STF_REQUIRE(fitted_, "CalibrationModel::serialize: model not fitted");
  std::ostringstream os;
  os.precision(17);
  os << "sigtest-calibration v1\n";
  os << "poly_degree " << options_.poly_degree << '\n';
  os << "ridge_lambda " << options_.ridge_lambda << '\n';
  os << "min_bin_snr " << options_.min_bin_snr << '\n';
  auto emit = [&os](const char* key, const std::vector<double>& v) {
    os << key << ' ' << v.size();
    for (double x : v) os << ' ' << x;
    os << '\n';
  };
  emit("bin_mean", bin_mean_);
  emit("bin_scale", bin_scale_);
  os << "bin_alive " << bin_alive_.size();
  for (bool alive : bin_alive_) os << ' ' << (alive ? 1 : 0);
  os << '\n';
  emit("spec_mean", spec_mean_);
  emit("spec_scale", spec_scale_);
  os << "weights " << weights_.rows() << ' ' << weights_.cols();
  for (std::size_t r = 0; r < weights_.rows(); ++r)
    for (std::size_t c = 0; c < weights_.cols(); ++c)
      os << ' ' << weights_(r, c);
  os << '\n';
  return os.str();
}

CalibrationModel CalibrationModel::deserialize(const std::string& text) {
  // Hard ceilings on serialized dimensions. A corrupted or hostile length
  // field must fail with a typed parse error BEFORE any allocation is
  // attempted -- `std::vector<double> v(garbage_n)` would otherwise turn a
  // flipped byte into a multi-gigabyte allocation or bad_alloc.
  constexpr std::size_t kMaxDim = std::size_t{1} << 20;
  constexpr std::size_t kMaxWeights = std::size_t{1} << 24;

  std::istringstream is(text);
  std::string magic, version;
  if (!(is >> magic >> version) || magic != "sigtest-calibration" ||
      version != "v1")
    throw CalibrationParseError("bad header (want \"sigtest-calibration v1\")");

  auto expect_key = [&is](const char* key) {
    std::string k;
    if (!(is >> k) || k != key)
      throw CalibrationParseError(std::string("expected key \"") + key +
                                  "\"");
  };
  auto read_length = [&](const char* key) {
    std::size_t n = 0;
    if (!(is >> n))
      throw CalibrationParseError(std::string("bad ") + key + " length");
    if (n > kMaxDim)
      throw CalibrationParseError(std::string(key) + " length " +
                                  std::to_string(n) + " exceeds limit " +
                                  std::to_string(kMaxDim));
    return n;
  };
  auto read_vector = [&](const char* key) {
    expect_key(key);
    std::vector<double> v(read_length(key));
    for (double& x : v)
      if (!(is >> x))
        throw CalibrationParseError(std::string("truncated ") + key);
    return v;
  };

  // Validate the options explicitly (not via the constructor contracts):
  // deserialize guards a trust boundary -- a model file from the
  // characterization lab -- so malformed values must fail with a typed,
  // message-bearing error even in builds with contract checking disabled.
  CalibrationOptions opts;
  expect_key("poly_degree");
  is >> opts.poly_degree;
  expect_key("ridge_lambda");
  is >> opts.ridge_lambda;
  expect_key("min_bin_snr");
  is >> opts.min_bin_snr;
  if (!is) throw CalibrationParseError("bad options block");
  if (opts.poly_degree < 1 || opts.poly_degree > 3)
    throw CalibrationParseError("poly_degree " +
                                std::to_string(opts.poly_degree) +
                                " out of range [1, 3]");
  if (!std::isfinite(opts.ridge_lambda) || opts.ridge_lambda < 0.0)
    throw CalibrationParseError("ridge_lambda must be finite and >= 0");
  if (!std::isfinite(opts.min_bin_snr))
    throw CalibrationParseError("min_bin_snr must be finite");

  CalibrationModel model(opts);
  model.bin_mean_ = read_vector("bin_mean");
  model.bin_scale_ = read_vector("bin_scale");
  {
    expect_key("bin_alive");
    const std::size_t n = read_length("bin_alive");
    model.bin_alive_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      int flag = 0;
      if (!(is >> flag))
        throw CalibrationParseError("truncated bin_alive");
      model.bin_alive_[i] = flag != 0;
    }
  }
  model.spec_mean_ = read_vector("spec_mean");
  model.spec_scale_ = read_vector("spec_scale");
  {
    expect_key("weights");
    std::size_t rows = 0, cols = 0;
    if (!(is >> rows >> cols))
      throw CalibrationParseError("bad weights shape");
    if (rows > kMaxDim || cols > kMaxDim || (rows != 0 && cols > kMaxWeights / rows))
      throw CalibrationParseError("weights shape " + std::to_string(rows) +
                                  " x " + std::to_string(cols) +
                                  " exceeds limit");
    model.weights_ = stf::la::Matrix(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        if (!(is >> model.weights_(r, c)))
          throw CalibrationParseError("truncated weights");
  }
  if (model.bin_mean_.size() != model.bin_scale_.size() ||
      model.bin_mean_.size() != model.bin_alive_.size() ||
      model.spec_mean_.size() != model.spec_scale_.size() ||
      model.weights_.rows() != model.spec_mean_.size() ||
      model.weights_.cols() !=
          1 + model.bin_mean_.size() * opts.poly_degree)
    throw CalibrationParseError("inconsistent dimensions");
  model.fitted_ = true;
  return model;
}

double normalized_rms_error(const CalibrationModel& model,
                            const stf::la::Matrix& signatures,
                            const stf::la::Matrix& specs) {
  STF_REQUIRE(model.fitted(), "normalized_rms_error: model not fitted");
  const std::size_t n = signatures.rows();
  STF_REQUIRE(n >= 1, "normalized_rms_error: no rows");
  STF_REQUIRE(specs.rows() == n, "normalized_rms_error: row count mismatch");
  const std::size_t n_specs = specs.cols();
  STF_REQUIRE(model.n_specs() == n_specs,
              "normalized_rms_error: spec count mismatch");

  // Per-spec normalization so specs with different units weigh equally --
  // computed from the given rows, so two models scored on the same holdout
  // share the same scale and their errors are directly comparable.
  std::vector<double> spec_scale(n_specs, 1.0);
  for (std::size_t s = 0; s < n_specs; ++s) {
    double mu = 0.0;
    for (std::size_t i = 0; i < n; ++i) mu += specs(i, s);
    mu /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = specs(i, s) - mu;
      var += d * d;
    }
    var /= static_cast<double>(n);
    spec_scale[s] = var > 1e-30 ? std::sqrt(var) : 1.0;
  }

  double score = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto pred = model.predict(signatures.row(i));
    for (std::size_t s = 0; s < n_specs; ++s) {
      const double e = (pred[s] - specs(i, s)) / spec_scale[s];
      score += e * e;
    }
  }
  return std::sqrt(score / static_cast<double>(n * n_specs));
}

ValidationReport make_validation_report(
    const std::vector<std::string>& names,
    const std::vector<std::vector<double>>& truth,
    const std::vector<std::vector<double>>& predicted) {
  STF_REQUIRE(!names.empty(), "make_validation_report: no targets");
  STF_REQUIRE(!truth.empty() && truth.size() == predicted.size(),
              "make_validation_report: need one truth and one prediction row "
              "per device");
  const std::size_t n_targets = names.size();
  ValidationReport report;
  report.specs.resize(n_targets);
  for (std::size_t s = 0; s < n_targets; ++s) report.specs[s].name = names[s];
  for (std::size_t i = 0; i < truth.size(); ++i) {
    STF_REQUIRE(truth[i].size() == n_targets &&
                    predicted[i].size() == n_targets,
                "make_validation_report: row length differs from the names");
    for (std::size_t s = 0; s < n_targets; ++s) {
      report.specs[s].truth.push_back(truth[i][s]);
      report.specs[s].predicted.push_back(predicted[i][s]);
    }
  }
  for (SpecScatter& spec : report.specs) {
    spec.rms_error = stf::stats::rms_error(spec.truth, spec.predicted);
    spec.std_error = stf::stats::std_error(spec.truth, spec.predicted);
    spec.max_abs_error = stf::stats::max_abs_error(spec.truth, spec.predicted);
    spec.r_squared = stf::stats::r_squared(spec.truth, spec.predicted);
  }
  return report;
}

}  // namespace stf::sigtest

#include "sigtest/objective.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"
#include "linalg/svd.hpp"

namespace stf::sigtest {

namespace {

void require_sensitivities(const stf::la::Matrix& a_p,
                           const stf::la::Matrix& a_s, double sigma_m) {
  STF_REQUIRE(!(a_p.empty() || a_s.empty()),
              "signature_objective: empty sensitivity");
  STF_REQUIRE(a_p.cols() == a_s.cols(),
              "signature_objective: A_p and A_s must share the parameter axis");
  STF_REQUIRE(sigma_m >= 0.0, "signature_objective: sigma_m < 0");
  STF_ASSERT_FINITE("signature_objective: non-finite A_p", a_p.data(),
                    a_p.size());
  STF_ASSERT_FINITE("signature_objective: non-finite A_s", a_s.data(),
                    a_s.size());
}

}  // namespace

ObjectiveBreakdown signature_objective(const stf::la::Matrix& a_p,
                                       const stf::la::Matrix& a_s,
                                       double sigma_m) {
  require_sensitivities(a_p, a_s, sigma_m);
  // Eq. 9: A = A_p * pinv(A_s). pinv(A_s) is k x m.
  return signature_objective(a_p, a_s, stf::la::pinv(a_s), sigma_m);
}

ObjectiveBreakdown signature_objective(const stf::la::Matrix& a_p,
                                       const stf::la::Matrix& a_s,
                                       const stf::la::Matrix& as_pinv,
                                       double sigma_m) {
  require_sensitivities(a_p, a_s, sigma_m);
  STF_REQUIRE(as_pinv.rows() == a_s.cols() && as_pinv.cols() == a_s.rows(),
              "signature_objective: pinv(A_s) must be k x m");

  const std::size_t n = a_p.rows();  // specs
  const std::size_t m = a_s.rows();  // signature bins
  const std::size_t k = a_p.cols();  // process parameters

  ObjectiveBreakdown out;
  out.a = a_p * as_pinv;  // Eq. 9: A = A_p * pinv(A_s), n x m

  out.sigma_p.resize(n);
  out.noise_term.resize(n);
  out.sigma.resize(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // Residual of row i: || a_p,i^T - a_i^T A_s ||.
    double res2 = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      double recon = 0.0;
      for (std::size_t b = 0; b < m; ++b) recon += out.a(i, b) * a_s(b, j);
      const double r = a_p(i, j) - recon;
      res2 += r * r;
    }
    double a_norm2 = 0.0;
    for (std::size_t b = 0; b < m; ++b) a_norm2 += out.a(i, b) * out.a(i, b);

    out.sigma_p[i] = std::sqrt(res2);
    out.noise_term[i] = sigma_m * std::sqrt(a_norm2);
    const double sigma2 = res2 + sigma_m * sigma_m * a_norm2;
    out.sigma[i] = std::sqrt(sigma2);
    acc += sigma2;
  }
  out.f = acc / static_cast<double>(n);
  STF_ENSURE(stf::contracts::finite(out.f),
             "signature_objective: non-finite objective value");
  return out;
}

}  // namespace stf::sigtest

#include "resilience/health.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace rascad::resilience {

bool all_finite(const linalg::Vector& v) noexcept {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

HealthReport check_distribution(linalg::Vector& pi,
                                const HealthCheckConfig& config) {
  HealthReport report;
  if (!all_finite(pi)) {
    report.ok = false;
    report.failure = SolveCause::kNanOrInf;
    report.detail = "non-finite entries in probability vector";
    return report;
  }

  // Clamp negative entries, accounting for how much mass was discarded.
  double negative_mass = 0.0;
  for (double& x : pi) {
    if (x < 0.0) {
      negative_mass -= x;
      x = 0.0;
    }
  }
  report.clamped_mass = negative_mass;
  if (negative_mass > config.clamp_tolerance) {
    report.ok = false;
    report.failure = SolveCause::kNanOrInf;
    std::ostringstream os;
    os << "negative probability mass " << negative_mass
       << " exceeds clamp tolerance " << config.clamp_tolerance;
    report.detail = os.str();
    return report;
  }
  const double total = linalg::sum(pi);
  if (!(total > 0.0) || !std::isfinite(total)) {
    report.ok = false;
    report.failure = SolveCause::kNanOrInf;
    report.detail = "probability vector has no positive mass";
    return report;
  }
  linalg::scale(pi, 1.0 / total);
  return report;
}

HealthReport check_stationary(const linalg::CsrMatrix& q, linalg::Vector& pi,
                              const HealthCheckConfig& config,
                              double tolerance) {
  if (pi.size() != q.rows()) {
    HealthReport report;
    report.ok = false;
    report.failure = SolveCause::kInvalidInput;
    report.detail = "stationary vector size mismatch";
    return report;
  }
  HealthReport report = check_distribution(pi, config);
  if (!report.ok) return report;

  // Independent residual re-check: recompute pi Q from the generator and
  // measure it in both the infinity and 1 norms, regardless of whatever
  // convergence metric the solver used internally.
  const linalg::Vector r = q.mul_transpose(pi);
  report.residual_inf = linalg::norm_inf(r);
  report.residual_l1 = linalg::norm1(r);
  const double scale = std::max(1.0, q.max_abs_diagonal());
  const double bound = config.residual_factor * tolerance * scale;
  if (!(report.residual_inf <= bound)) {
    report.ok = false;
    report.failure = SolveCause::kNonConverged;
    std::ostringstream os;
    os << "independent residual " << report.residual_inf
       << " exceeds bound " << bound;
    report.detail = os.str();
    return report;
  }
  return report;
}

}  // namespace rascad::resilience

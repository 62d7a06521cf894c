#include "markov/transient.hpp"

#include "resilience/solve_error.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

namespace rascad::markov {

namespace {

constexpr double kTolerance = 1e-12;          // admissible truncation mass
constexpr std::size_t kMaxTerms = 20'000'000;  // hard cap on Poisson terms

void check_inputs(const Ctmc& chain, const linalg::Vector& pi0, double t) {
  if (pi0.size() != chain.size()) {
    throw std::invalid_argument("transient: pi0 size mismatch");
  }
  if (!(t >= 0.0)) {
    throw std::invalid_argument("transient: time must be non-negative");
  }
  const double s = linalg::sum(pi0);
  if (std::abs(s - 1.0) > 1e-9) {
    throw std::invalid_argument("transient: pi0 must sum to 1");
  }
}

/// glibc's lgamma writes the global `signgam`, which races when reward
/// curves are sampled on the thread pool; lgamma_r keeps the sign local.
double log_gamma(double x) {
#if defined(__GLIBC__)
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

/// Poisson(a) pmf at k, computed in log space so that large a is safe.
double poisson_pmf(double a, std::size_t k) {
  return std::exp(-a + static_cast<double>(k) * std::log(a) -
                  log_gamma(static_cast<double>(k) + 1.0));
}

/// The uniformized chain as every series term uses it: P transposed, so a
/// term is a forward, row-ordered SpMV instead of a scattered
/// mul_transpose, and the uniformization rate q.
struct Uniformized {
  linalg::CsrMatrix pt;
  double q;
};

Uniformized uniformize(const Ctmc& chain) {
  const auto [p, q] = chain.uniformized();
  return {p.transposed(), q};
}

/// Poisson(a) truncation point for a series over kMaxTerms terms. A series
/// stops only at k >= a, so a >= kMaxTerms (or NaN, from t = inf) can
/// never converge: fail before any work, and before the size_t cast,
/// which is undefined past 2^64. Otherwise the hard cutoff: the Poisson(a)
/// mass beyond a + 12 sqrt(a) + 64 is far below double precision, so
/// reaching it means the summed CDF has numerically saturated (rounding
/// noise), not that mass is missing. Used as a secondary stop after the
/// tolerance test.
std::size_t poisson_cutoff(double a, const char* who) {
  if (!(a < static_cast<double>(kMaxTerms))) {
    throw resilience::SolveError(
        resilience::SolveCause::kBudgetExceeded, who,
        "Poisson mean q*t exceeds the term budget (reduce the horizon)");
  }
  return static_cast<std::size_t>(a + 12.0 * std::sqrt(a) + 64.0);
}

[[noreturn]] void throw_not_converged(const char* who) {
  throw resilience::SolveError(
      resilience::SolveCause::kBudgetExceeded, who,
      "Poisson truncation did not converge (reduce the horizon)");
}

/// pi(t) = sum_k Poisson(q t; k) pi0 P^k.
linalg::Vector distribution_series(const Uniformized& u,
                                   const linalg::Vector& pi0, double t) {
  const double a = u.q * t;
  const std::size_t cutoff = poisson_cutoff(a, "transient_distribution");
  linalg::Vector v = pi0;  // v_k = pi0 P^k
  linalg::Vector pit(pi0.size(), 0.0);
  double cumulative = 0.0;
  for (std::size_t k = 0; k < kMaxTerms; ++k) {
    const double w = poisson_pmf(a, k);
    if (w > 0.0) linalg::axpy(w, v, pit);
    cumulative += w;
    if ((cumulative >= 1.0 - kTolerance && static_cast<double>(k) >= a) ||
        k >= cutoff) {
      // The dropped tail has mass < tolerance (or below the double-sum
      // noise floor past the cutoff); fold it into the current vector so
      // probabilities still sum to ~1.
      linalg::axpy(1.0 - cumulative, v, pit);
      return pit;
    }
    v = u.pt.mul(v);
  }
  throw_not_converged("transient_distribution");
}

/// Integral of r . pi(u) du over (0, t) for an arbitrary rate vector r.
double integral_series(const Uniformized& u, const linalg::Vector& pi0,
                       double t, const linalg::Vector& r) {
  const double a = u.q * t;
  const std::size_t cutoff = poisson_cutoff(a, "accumulated_reward");
  linalg::Vector v = pi0;
  double acc = 0.0;
  double cumulative = 0.0;   // Poisson CDF up to the current term
  double weight_sum = 0.0;   // sum of integral weights, converges to t
  for (std::size_t k = 0; k < kMaxTerms; ++k) {
    cumulative += poisson_pmf(a, k);
    const double w = (1.0 - cumulative) / u.q;  // weight of v_k
    if (w > 0.0) {
      acc += w * linalg::dot(r, v);
      weight_sum += w;
    }
    if ((t - weight_sum <= kTolerance * t && static_cast<double>(k) >= a) ||
        k >= cutoff) {
      // Attribute the residual integral mass to the current vector.
      acc += (t - weight_sum) * linalg::dot(r, v);
      return acc;
    }
    v = u.pt.mul(v);
  }
  throw_not_converged("accumulated_reward");
}

/// Stationarity check: ||pi Q||_inf scaled by the uniformization rate.
bool is_stationary(const Ctmc& chain, const linalg::Vector& pi, double q) {
  const linalg::Vector flow = chain.generator().mul_transpose(pi);
  return linalg::norm_inf(flow) < 1e-10 * std::max(q, 1.0);
}

struct Mixed {
  double window;
  linalg::Vector pi;  // pi(window), already stationary
};

/// Steady-state detection for horizons beyond the term budget: search
/// windows 512/q, x16, ... up to a fifth of the budget for one after which
/// pi0 has mixed; pi at that window is then pi at every later time. Empty
/// when q*t fits the budget or the chain does not mix within the cap.
std::optional<Mixed> mixing_window(const Ctmc& chain, const Uniformized& u,
                                   const linalg::Vector& pi0, double t) {
  if (!(u.q * t > 0.4 * static_cast<double>(kMaxTerms))) return std::nullopt;
  double window = 512.0 / u.q;
  const double window_cap = 0.2 * static_cast<double>(kMaxTerms) / u.q;
  while (window < t) {
    linalg::Vector pi_w = distribution_series(u, pi0, window);
    if (is_stationary(chain, pi_w, u.q)) return Mixed{window, std::move(pi_w)};
    if (window >= window_cap) break;
    window = std::min(window * 16.0, window_cap);
  }
  return std::nullopt;
}

linalg::Vector distribution(const Ctmc& chain, const Uniformized& u,
                            const linalg::Vector& pi0, double t) {
  if (t == 0.0) return pi0;
  if (std::optional<Mixed> mixed = mixing_window(chain, u, pi0, t)) {
    return std::move(mixed->pi);
  }
  return distribution_series(u, pi0, t);
}

/// Integral of r . pi(u) du over (0, t); after a mixing window the rest of
/// the horizon accrues at the stationary rate r . pi_ss.
double integral(const Ctmc& chain, const Uniformized& u,
                const linalg::Vector& pi0, double t, const linalg::Vector& r) {
  if (std::optional<Mixed> mixed = mixing_window(chain, u, pi0, t)) {
    const double head = integral_series(u, pi0, mixed->window, r);
    return head + linalg::dot(r, mixed->pi) * (t - mixed->window);
  }
  return integral_series(u, pi0, t, r);
}

/// Flow rate out of each source-class state (up states when `up_to_down`)
/// into the other class.
linalg::Vector crossing_flow(const Ctmc& chain, bool up_to_down) {
  linalg::Vector flow(chain.size(), 0.0);
  const auto& q = chain.generator();
  for (StateIndex i = 0; i < chain.size(); ++i) {
    const bool i_up = chain.reward(i) > 0.0;
    if (i_up != up_to_down) continue;
    const auto row = q.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      const StateIndex j = row.cols[k];
      if (j == i) continue;
      const bool j_up = chain.reward(j) > 0.0;
      if (j_up != i_up) flow[i] += row.values[k];
    }
  }
  return flow;
}

/// Expected up->down (or down->up) crossings over (0, t) divided by the
/// time spent in the source class.
double interval_crossing_rate(const Ctmc& chain, const linalg::Vector& pi0,
                              double t, bool up_to_down) {
  check_inputs(chain, pi0, t);
  if (t == 0.0) return 0.0;
  const Uniformized u = uniformize(chain);
  const double up_time = integral(chain, u, pi0, t, chain.reward_vector());
  const double source_time = up_to_down ? up_time : t - up_time;
  if (source_time <= 0.0) return 0.0;
  return integral(chain, u, pi0, t, crossing_flow(chain, up_to_down)) /
         source_time;
}

}  // namespace

linalg::Vector transient_distribution(const Ctmc& chain,
                                      const linalg::Vector& pi0, double t) {
  check_inputs(chain, pi0, t);
  if (t == 0.0) return pi0;
  return distribution(chain, uniformize(chain), pi0, t);
}

double accumulated_reward(const Ctmc& chain, const linalg::Vector& pi0,
                          double t) {
  check_inputs(chain, pi0, t);
  if (t == 0.0) return 0.0;
  return integral(chain, uniformize(chain), pi0, t, chain.reward_vector());
}

double expected_crossings(const Ctmc& chain, const linalg::Vector& pi0,
                          double t, bool up_to_down) {
  check_inputs(chain, pi0, t);
  if (t == 0.0) return 0.0;
  return integral(chain, uniformize(chain), pi0, t,
                  crossing_flow(chain, up_to_down));
}

double interval_failure_rate(const Ctmc& chain, const linalg::Vector& pi0,
                             double t) {
  return interval_crossing_rate(chain, pi0, t, true);
}

double interval_recovery_rate(const Ctmc& chain, const linalg::Vector& pi0,
                              double t) {
  return interval_crossing_rate(chain, pi0, t, false);
}

double interval_availability(const Ctmc& chain, const linalg::Vector& pi0,
                             double t) {
  if (!(t > 0.0)) {
    throw std::invalid_argument("interval_availability: t must be positive");
  }
  return accumulated_reward(chain, pi0, t) / t;
}

double point_availability(const Ctmc& chain, const linalg::Vector& pi0,
                          double t) {
  const linalg::Vector pit = transient_distribution(chain, pi0, t);
  double acc = 0.0;
  for (StateIndex i = 0; i < chain.size(); ++i) {
    acc += pit[i] * chain.reward(i);
  }
  return acc;
}

linalg::Vector reward_curve(const Ctmc& chain, const linalg::Vector& pi0,
                            double horizon, std::size_t steps) {
  check_inputs(chain, pi0, horizon);
  if (!(horizon > 0.0) || steps == 0) {
    throw std::invalid_argument("reward_curve: need positive horizon/steps");
  }
  const double h = horizon / static_cast<double>(steps);
  const Uniformized u = uniformize(chain);
  const linalg::Vector r = chain.reward_vector();
  linalg::Vector curve(steps + 1);
  linalg::Vector pi = pi0;
  curve[0] = linalg::dot(r, pi);
  for (std::size_t k = 1; k <= steps; ++k) {
    pi = distribution(chain, u, pi, h);
    curve[k] = linalg::dot(r, pi);
  }
  return curve;
}

linalg::Vector point_mass(const Ctmc& chain, StateIndex state) {
  if (state >= chain.size()) {
    throw std::out_of_range("point_mass: state out of range");
  }
  linalg::Vector v(chain.size(), 0.0);
  v[state] = 1.0;
  return v;
}

}  // namespace rascad::markov

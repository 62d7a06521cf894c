#include "markov/steady_state.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/iterative.hpp"
#include "linalg/lu.hpp"
#include "resilience/solve_error.hpp"

namespace rascad::markov {

using resilience::SolveCause;
using resilience::SolveError;

namespace {

/// Residual ||pi Q||_inf, a direct measure of stationarity.
double stationarity_residual(const Ctmc& chain, const linalg::Vector& pi) {
  const linalg::Vector r = chain.generator().mul_transpose(pi);
  return linalg::norm_inf(r);
}

/// Per-iteration cooperative checkpoint for the solver loops owned by this
/// translation unit (the linalg-backed methods get theirs via
/// IterativeOptions). Throw-only: uncancelled runs stay bitwise identical.
inline void checkpoint(const SteadyStateOptions& opts, std::size_t it,
                       const char* who) {
  if (!opts.cancel.valid()) return;
  if (it != 1 && it % robust::kCheckInterval != 0) return;
  robust::throw_if_stopped(opts.cancel, who, it - 1);
}

linalg::IterativeOptions iterative_options_from(
    const SteadyStateOptions& opts) {
  linalg::IterativeOptions iopts;
  iopts.tolerance = opts.tolerance;
  iopts.max_iterations = opts.max_iterations;
  iopts.cancel = opts.cancel;
  return iopts;
}

SteadyStateResult solve_direct(const Ctmc& chain) {
  const std::size_t n = chain.size();
  // pi Q = 0  <=>  Q^T pi^T = 0; replace the last equation with the
  // normalization sum(pi) = 1 to obtain a nonsingular system.
  linalg::DenseMatrix a = chain.generator().transposed().to_dense();
  for (std::size_t c = 0; c < n; ++c) a(n - 1, c) = 1.0;
  linalg::Vector b(n, 0.0);
  b[n - 1] = 1.0;
  SteadyStateResult result;
  result.pi = linalg::lu_solve(std::move(a), b);
  // Clamp the tiny negative round-off values that can appear for states
  // with probability near machine epsilon.
  for (double& x : result.pi) {
    if (x < 0.0 && x > -1e-12) x = 0.0;
  }
  linalg::normalize_sum(result.pi);
  result.residual = stationarity_residual(chain, result.pi);
  return result;
}

SteadyStateResult solve_sor(const Ctmc& chain, const SteadyStateOptions& opts) {
  // Gauss-Seidel on the fixed point pi_i = sum_{j != i} pi_j q_ji / (-q_ii),
  // renormalizing each sweep. Requires every state to have an exit rate.
  const std::size_t n = chain.size();
  const linalg::CsrMatrix qt = chain.generator().transposed();
  linalg::Vector diag(n);
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = chain.exit_rate(i);
    if (!(diag[i] > 0.0)) {
      throw SolveError(SolveCause::kInvalidInput, "solve_steady_state(SOR)",
                       "absorbing state in chain");
    }
  }
  linalg::Vector pi(n, 1.0 / static_cast<double>(n));
  SteadyStateResult result;
  for (std::size_t it = 1; it <= opts.max_iterations; ++it) {
    checkpoint(opts, it, "solve_steady_state(SOR)");
    double change = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double inflow = 0.0;
      const auto row = qt.row(i);  // row i of Q^T: arcs j -> i
      for (std::size_t k = 0; k < row.size; ++k) {
        if (row.cols[k] != i) inflow += row.values[k] * pi[row.cols[k]];
      }
      const double gs = inflow / diag[i];
      const double updated = pi[i] + opts.relaxation * (gs - pi[i]);
      change = std::max(change, std::abs(updated - pi[i]));
      pi[i] = updated;
    }
    linalg::normalize_sum(pi);
    result.iterations = it;
    if (change < opts.tolerance) break;
  }
  result.pi = std::move(pi);
  result.residual = stationarity_residual(chain, result.pi);
  if (result.iterations >= opts.max_iterations &&
      result.residual > 1e3 * opts.tolerance) {
    throw SolveError(SolveCause::kNonConverged, "solve_steady_state(SOR)",
                     "did not converge", result.iterations, result.residual);
  }
  return result;
}

SteadyStateResult solve_power(const Ctmc& chain,
                              const SteadyStateOptions& opts) {
  const auto [p, q] = chain.uniformized();
  (void)q;
  const linalg::IterativeResult r =
      linalg::power_stationary(p, iterative_options_from(opts));
  if (!r.converged) {
    throw SolveError(SolveCause::kNonConverged, "solve_steady_state(power)",
                     "did not converge", r.iterations, r.residual);
  }
  SteadyStateResult result;
  result.pi = r.solution;
  result.iterations = r.iterations;
  result.residual = stationarity_residual(chain, result.pi);
  return result;
}

SteadyStateResult solve_bicgstab(const Ctmc& chain,
                                 const SteadyStateOptions& opts) {
  const std::size_t n = chain.size();
  // Same replaced-row formulation as the direct method, in sparse form,
  // with Jacobi (diagonal) row scaling: generated chains mix rates that
  // span many orders of magnitude (failures per 1e5 h vs reboots per
  // 0.1 h), and unpreconditioned BiCGSTAB stalls on that spread.
  const linalg::CsrMatrix qt = chain.generator().transposed();
  linalg::CsrBuilder ab(n, n);
  for (std::size_t r = 0; r < n - 1; ++r) {
    const auto row = qt.row(r);
    double diag = 0.0;
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] == r) diag = row.values[k];
    }
    if (diag == 0.0) {
      throw SolveError(SolveCause::kInvalidInput,
                       "solve_steady_state(bicgstab)",
                       "absorbing state in chain");
    }
    for (std::size_t k = 0; k < row.size; ++k) {
      ab.add(r, row.cols[k], row.values[k] / diag);
    }
  }
  for (std::size_t c = 0; c < n; ++c) ab.add(n - 1, c, 1.0);
  linalg::Vector b(n, 0.0);
  b[n - 1] = 1.0;
  const linalg::IterativeResult r =
      linalg::bicgstab_solve(ab.build(), b, iterative_options_from(opts));
  if (!r.converged) {
    throw SolveError(SolveCause::kNonConverged,
                     "solve_steady_state(bicgstab)", "did not converge",
                     r.iterations, r.residual);
  }
  SteadyStateResult result;
  result.pi = r.solution;
  for (double& x : result.pi) {
    if (x < 0.0 && x > -1e-10) x = 0.0;
  }
  linalg::normalize_sum(result.pi);
  result.iterations = r.iterations;
  result.residual = stationarity_residual(chain, result.pi);
  return result;
}

}  // namespace

SteadyStateResult solve_steady_state(const Ctmc& chain,
                                     const SteadyStateOptions& opts) {
  if (chain.size() == 1) {
    SteadyStateResult r;
    r.pi = {1.0};
    return r;
  }
  switch (opts.method) {
    case SteadyStateMethod::kDirect:
      return solve_direct(chain);
    case SteadyStateMethod::kSor:
      return solve_sor(chain, opts);
    case SteadyStateMethod::kPower:
      return solve_power(chain, opts);
    case SteadyStateMethod::kBiCgStab:
      return solve_bicgstab(chain, opts);
  }
  throw std::logic_error("solve_steady_state: unknown method");
}

double expected_reward(const Ctmc& chain, const linalg::Vector& pi) {
  if (pi.size() != chain.size()) {
    throw std::invalid_argument("expected_reward: size mismatch");
  }
  double acc = 0.0;
  for (StateIndex i = 0; i < chain.size(); ++i) {
    acc += pi[i] * chain.reward(i);
  }
  return acc;
}

double equivalent_failure_rate(const Ctmc& chain, const linalg::Vector& pi) {
  if (pi.size() != chain.size()) {
    throw std::invalid_argument("equivalent_failure_rate: size mismatch");
  }
  double up_prob = 0.0;
  double flow = 0.0;
  const auto& q = chain.generator();
  for (StateIndex i = 0; i < chain.size(); ++i) {
    if (chain.reward(i) <= 0.0) continue;
    up_prob += pi[i];
    const auto row = q.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      const StateIndex j = row.cols[k];
      if (j != i && chain.reward(j) <= 0.0) flow += pi[i] * row.values[k];
    }
  }
  if (up_prob <= 0.0) return 0.0;
  return flow / up_prob;
}

double equivalent_recovery_rate(const Ctmc& chain, const linalg::Vector& pi) {
  if (pi.size() != chain.size()) {
    throw std::invalid_argument("equivalent_recovery_rate: size mismatch");
  }
  double down_prob = 0.0;
  double flow = 0.0;
  const auto& q = chain.generator();
  for (StateIndex i = 0; i < chain.size(); ++i) {
    if (chain.reward(i) > 0.0) continue;
    down_prob += pi[i];
    const auto row = q.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      const StateIndex j = row.cols[k];
      if (j != i && chain.reward(j) > 0.0) flow += pi[i] * row.values[k];
    }
  }
  if (down_prob <= 0.0) return 0.0;
  return flow / down_prob;
}

}  // namespace rascad::markov

#include "markov/steady_state.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "resilience/solve_error.hpp"

namespace rascad::markov {

using resilience::SolveCause;
using resilience::SolveError;

linalg::Vector gth_stationary(const linalg::CsrMatrix& weights,
                              const robust::CancelToken& cancel) {
  const std::size_t n = weights.rows();
  if (n == 0) {
    throw SolveError(SolveCause::kInvalidInput, "gth_stationary",
                     "empty chain");
  }
  // Dense row-major working copy of the off-diagonal weights, zeroed and
  // filled one row per checkpoint: first-touching an n^2 buffer costs
  // milliseconds at n ~ 900, too long to leave without a poll.
  const auto w_storage = std::make_unique_for_overwrite<double[]>(n * n);
  const auto w = [&](std::size_t i, std::size_t j) -> double& {
    return w_storage[i * n + j];
  };
  for (std::size_t r = 0; r < n; ++r) {
    robust::throw_if_stopped(cancel, "gth_stationary");
    std::fill_n(&w(r, 0), n, 0.0);
    const auto row = weights.row(r);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] != r) w(r, row.cols[k]) = row.values[k];
    }
  }

  // Forward elimination of states n-1 .. 1 (state 0 is kept). Eliminating
  // state m censors the chain to the surviving states: the new weight from
  // i to j is w(i, j) + w(i, m) * w(m, j) / out(m), where out(m) is m's
  // total outflow to the survivors. The division is folded into column m
  // (w(i, m) /= out) so the back-substitution identity
  //   pi(m) = sum_{i < m} pi(i) * w(i, m)
  // holds directly. Only sums of non-negative terms occur. The diagonal is
  // never read, so the update may write w(i, i) freely.
  for (std::size_t m = n - 1; m >= 1; --m) {
    robust::throw_if_stopped(cancel, "gth_stationary", n - 1 - m);
    double out = 0.0;
    for (std::size_t j = 0; j < m; ++j) out += w(m, j);
    if (!(out > 0.0) || !std::isfinite(out)) {
      throw SolveError(
          SolveCause::kInvalidInput, "gth_stationary",
          "state " + std::to_string(m) +
              " has no outflow to surviving states (reducible chain)",
          n - 1 - m);
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (w(i, m) == 0.0) continue;
      const double into_m = w(i, m) /= out;
      for (std::size_t j = 0; j < m; ++j) w(i, j) += into_m * w(m, j);
    }
  }

  // Back-substitution: unnormalized pi[0] = 1, each later state's mass is
  // the inflow-weighted sum over already-computed states.
  linalg::Vector pi(n, 0.0);
  pi[0] = 1.0;
  double total = 1.0;
  for (std::size_t m = 1; m < n; ++m) {
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) acc += pi[i] * w(i, m);
    pi[m] = acc;
    total += acc;
  }
  for (double& x : pi) x /= total;
  return pi;
}

SteadyStateResult solve_steady_state(const Ctmc& chain,
                                     const SteadyStateOptions& opts) {
  SteadyStateResult result;
  result.pi = gth_stationary(chain.generator(), opts.cancel);
  result.residual =
      linalg::norm_inf(chain.generator().mul_transpose(result.pi));
  return result;
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

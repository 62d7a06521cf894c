// Steady-state solution of CTMCs: pi Q = 0, sum(pi) = 1.
//
// One algorithm serves every stationary solve in the stack: Grassmann-
// Taksar-Heyman (GTH) elimination. It computes the stationary vector by a
// state-elimination recurrence that only adds, multiplies and divides
// non-negative quantities; with no subtractions there is no catastrophic
// cancellation, so the result is componentwise accurate even when the
// chain's rates and stationary masses span many orders of magnitude, as
// they do in generated availability chains (O'Cinneide 1993). The cost is
// a dense elimination whose inner loop skips the zero entries of the
// eliminated column.
#pragma once

#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "markov/ctmc.hpp"
#include "robust/cancel.hpp"

namespace rascad::markov {

struct SteadyStateOptions {
  /// Scale of the accepted stationarity residual: the resilience layer's
  /// independent check accepts ||pi Q||_inf up to
  /// residual_factor * tolerance * max(1, max exit rate).
  double tolerance = 1e-13;
  /// Cooperative stop, polled once per row copied into the elimination's
  /// dense workspace and once per eliminated state. A stopped token
  /// raises SolveError(kCancelled / kDeadlineExceeded); an uncancelled run
  /// is bitwise identical to one without a token.
  robust::CancelToken cancel;
};

struct SteadyStateResult {
  linalg::Vector pi;
  double residual = 0.0;  // infinity norm of pi Q
};

/// Stationary distribution of the irreducible chain whose transition
/// weights are the off-diagonal entries of `weights` (generator rates or
/// transition probabilities; the diagonal is ignored, so a DTMC's P and its
/// generator P - I give the same answer). `cancel` is polled before each of
/// the n rows is copied into the dense workspace and before each of the
/// n - 1 elimination steps; a stop throws SolveError(kCancelled /
/// kDeadlineExceeded) carrying the number of states eliminated so far.
/// Throws SolveError(kInvalidInput) on an empty matrix or when a state has
/// no outflow to the states not yet eliminated (a reducible chain, which
/// has no unique stationary distribution).
linalg::Vector gth_stationary(const linalg::CsrMatrix& weights,
                              const robust::CancelToken& cancel = {});

/// Stationary distribution of an irreducible chain by gth_stationary on its
/// generator, plus the residual ||pi Q||_inf. Throws SolveError as
/// gth_stationary does; resilience::solve_steady_state_resilient adds the
/// state budget, the independent health check and the SolveTrace.
SteadyStateResult solve_steady_state(const Ctmc& chain,
                                     const SteadyStateOptions& opts = {});

/// Expected steady-state reward rate: sum_i pi_i * reward_i. For a 0/1
/// reward structure this is the steady-state availability.
double expected_reward(const Ctmc& chain, const linalg::Vector& pi);

/// Equivalent (steady-state) system failure rate: the rate of up->down
/// transitions conditioned on being up. See Trivedi, ch. 8.
double equivalent_failure_rate(const Ctmc& chain, const linalg::Vector& pi);

/// Equivalent (steady-state) system recovery rate: down->up flow
/// conditioned on being down.
double equivalent_recovery_rate(const Ctmc& chain, const linalg::Vector& pi);

}  // namespace rascad::markov

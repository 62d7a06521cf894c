// Transient analysis of CTMCs by uniformization (Jensen's method), the
// standard numerically robust approach (Reibman/Trivedi 1989 — reference
// [6] of the paper). Provides point-in-time state probabilities and the
// time-averaged accumulated reward, i.e. interval availability over (0, T).
#pragma once

#include <cstddef>

#include "linalg/dense.hpp"
#include "markov/ctmc.hpp"

namespace rascad::markov {

/// State-probability vector at time t, starting from distribution pi0.
/// The Poisson series is truncated at mass 1e-12 and capped at 20M terms.
/// Throws std::invalid_argument for negative t / bad pi0, and
/// resilience::SolveError(kBudgetExceeded) — an is-a std::runtime_error —
/// when the series cannot converge within the cap: at once when q*t itself
/// reaches it (and the chain has not mixed by a shorter window), otherwise
/// when the cap runs out. The other entry points share this contract.
linalg::Vector transient_distribution(const Ctmc& chain,
                                      const linalg::Vector& pi0, double t);

/// Expected accumulated reward over (0, t): integral of r . pi(u) du.
double accumulated_reward(const Ctmc& chain, const linalg::Vector& pi0,
                          double t);

/// Interval availability over (0, t): accumulated 0/1 reward divided by t.
double interval_availability(const Ctmc& chain, const linalg::Vector& pi0,
                             double t);

/// Expected number of up->down transitions over (0, t): the integral of
/// the instantaneous up->down probability flow. With `up_to_down` false,
/// counts down->up (recovery) transitions instead.
double expected_crossings(const Ctmc& chain, const linalg::Vector& pi0,
                          double t, bool up_to_down = true);

/// Interval equivalent failure rate over (0, t): expected up->down
/// crossings divided by expected up time (paper Section 4's "interval ...
/// failure and recovery rates for (0, T)").
double interval_failure_rate(const Ctmc& chain, const linalg::Vector& pi0,
                             double t);

/// Interval equivalent recovery rate over (0, t): expected down->up
/// crossings divided by expected down time. Returns 0 when no down time
/// is accumulated.
double interval_recovery_rate(const Ctmc& chain, const linalg::Vector& pi0,
                              double t);

/// Point availability at time t: expected reward of pi(t).
double point_availability(const Ctmc& chain, const linalg::Vector& pi0,
                          double t);

/// Initial distribution concentrated on `state`.
linalg::Vector point_mass(const Ctmc& chain, StateIndex state);

/// Expected reward at each grid point k * (horizon / steps), k = 0..steps.
/// Computed by stepping the transient distribution grid point to grid
/// point with one uniformized operator built for the whole curve, so the
/// total cost is one uniformization pass over the horizon rather than one
/// per sample (the curves feed hierarchical RBD composition, which samples
/// every block on a shared grid). Sample k is bitwise equal to the reward
/// of k chained transient_distribution(..., horizon / steps) calls.
linalg::Vector reward_curve(const Ctmc& chain, const linalg::Vector& pi0,
                            double horizon, std::size_t steps);

}  // namespace rascad::markov

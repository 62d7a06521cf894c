// Sick-chain generators for the resilience layer's tests and benches.
//
// Each rebuilds a chain with scaled rates, a zeroed transition, or an
// extreme stiffness spread. They produce genuinely sick inputs (reducible
// chains, stationary masses spanning many orders of magnitude) rather than
// simulated failures, so the tests exercise the real error paths and
// accuracy limits of the solver and its health checks.
#pragma once

#include <cstddef>

#include "markov/ctmc.hpp"
#include "resilience/solve_error.hpp"

namespace rascad::resilience {

/// Copy of `chain` with every transition rate multiplied by `factor`
/// (> 0). Scaling is availability-neutral in exact arithmetic, so the
/// stationary vector must not move as factor -> 0.
markov::Ctmc with_scaled_rates(const markov::Ctmc& chain, double factor);

/// Copy of `chain` with the (from, to) transition removed. Zeroing the only
/// exit of a state produces an absorbing state — reducible-chain input for
/// the irreducible-only solvers. Throws SolveError(kInvalidInput) if the
/// transition does not exist.
markov::Ctmc with_transition_zeroed(const markov::Ctmc& chain,
                                    markov::StateIndex from,
                                    markov::StateIndex to);

/// A stiff birth-death availability chain of 2 * `pairs` + 1 states whose
/// adjacent rates alternate between 1 and `spread` (e.g. 1e12): its
/// stationary masses oscillate across a dynamic range of `spread`. GTH
/// resolves every mass to componentwise relative accuracy; a subtractive
/// elimination such as LU bounds only the normwise error.
markov::Ctmc ill_conditioned_chain(std::size_t pairs, double spread);

}  // namespace rascad::resilience

// Deterministic fault injection for the resilience ladder.
//
// Two families of faults, both fully deterministic so tests are exactly
// reproducible:
//
//  * Result faults (FaultPlan): the ladder consults the plan after each
//    rung and either throws a structured SolveError in the rung's name or
//    corrupts the rung's output (NaN seeding, negative mass) *before* the
//    health checks run. This is how the test suite proves that every
//    rung-to-rung transition actually fires and that the health layer, not
//    just the solvers' own error paths, catches bad answers.
//
//  * Generator perturbations: rebuild a chain with scaled rates, a zeroed
//    transition, or an extreme stiffness spread. These produce *genuinely*
//    sick inputs (near-singular systems, reducible chains, non-converging
//    iterations) rather than simulated failures.
#pragma once

#include <cstddef>
#include <map>

#include "markov/ctmc.hpp"
#include "resilience/solve_error.hpp"

namespace rascad::resilience {

/// What to do to a rung's attempt.
enum class FaultKind {
  kNone,
  kThrowSingular,      // throw SolveError(kSingular) in the rung's name
  kThrowNonConverged,  // throw SolveError(kNonConverged)
  kNanResult,          // overwrite one entry of the result with NaN
  kNegativeResult,     // subtract a large negative mass from one entry
};

/// Per-rung fault schedule: the fault fires on every attempt of its rung.
/// Empty (the default) injects nothing and costs one map lookup per rung
/// on the solve path.
struct FaultPlan {
  std::map<Rung, FaultKind> faults;

  /// The fault scheduled for `rung`, or kNone.
  FaultKind fault_for(Rung rung) const {
    const auto it = faults.find(rung);
    return it == faults.end() ? FaultKind::kNone : it->second;
  }

  /// Schedules `kind` on every attempt of `rung`.
  FaultPlan& fail(Rung rung, FaultKind kind) {
    faults[rung] = kind;
    return *this;
  }
};

/// Applies a result fault to a candidate vector (kNanResult /
/// kNegativeResult); throw-kind faults are raised by apply_fault.
void corrupt_result(linalg::Vector& pi, FaultKind kind);

/// Applies `plan`'s fault for `rung` against an already-computed result
/// `pi`. Throw kinds raise SolveError in the rung's name; corrupt kinds
/// poison `pi` (the health checks must catch it).
void apply_fault(const FaultPlan& plan, Rung rung, linalg::Vector& pi);

/// Copy of `chain` with every transition rate multiplied by `factor`
/// (> 0). Scaling is availability-neutral in exact arithmetic but drives
/// the replaced-row direct system toward singularity as factor -> 0.
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
/// uniformized DTMC mixes at rate ~1/spread, so power iteration and SOR
/// need O(spread) sweeps while direct elimination and GTH solve it exactly.
markov::Ctmc ill_conditioned_chain(std::size_t pairs, double spread);

}  // namespace rascad::resilience

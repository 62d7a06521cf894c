// Absorbing-chain (reliability) analysis.
//
// RAScad's reliability measures treat the system-failure states of an
// availability chain as absorbing: MTTF is the mean time to absorption,
// R(T) the probability of no absorption by T, and the hazard rate the
// conditional failure intensity over a time increment (paper, Section 4).
//
// Every mean time to absorption in the stack (CTMC MTTF, DTMC expected
// steps, SMP first passage) is one computation: GTH on the renewal chain.
// Absorbing states merge into a sink A that returns to the start state with
// weight 1; the renewal chain is then irreducible, pi_A is the renewal
// rate, and the mean time to absorption is
//     sum_{i transient} pi_i * c_i / pi_A
// with c_i the cost of one unit of "time" in state i: 1 for CTMC rates and
// for DTMC transition probabilities (self-loops count as revisits), the mean
// sojourn for a semi-Markov process's embedded chain. Nothing is subtracted
// anywhere, so the result keeps GTH's componentwise accuracy.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "markov/ctmc.hpp"
#include "markov/transient.hpp"
#include "robust/cancel.hpp"

namespace rascad::markov {

/// Returns a copy of `chain` with all outgoing transitions removed from the
/// given states (making them absorbing). Throws std::invalid_argument if
/// every state would be absorbing.
Ctmc make_absorbing(const Ctmc& chain, const std::vector<StateIndex>& absorbing);

/// Convenience: make every reward-0 (down) state absorbing — the standard
/// availability-model -> reliability-model conversion.
Ctmc make_down_states_absorbing(const Ctmc& chain);

/// True when state i of `weights` (generator rates or transition
/// probabilities) has no positive off-diagonal weight: the absorbing-state
/// rule of every first-passage computation below. Does not range-check i.
bool is_absorbing(const linalg::CsrMatrix& weights, StateIndex i);

/// The renewal chain of an absorbing chain seen from one start state.
/// Renewal index r < sink() stands for `states[r]`, the transient states
/// reachable from the start in chain order; index sink() is A.
struct RenewalChain {
  std::vector<StateIndex> states;
  /// Generator of the renewal chain: the source's off-diagonal weights
  /// among `states`, every weight into an absorbing state redirected to A,
  /// A -> start with weight 1, and the diagonal the negated row sums.
  linalg::CsrMatrix generator;

  std::size_t sink() const noexcept { return states.size(); }

  /// sum_r pi_r * c_r / pi_A from a stationary vector `pi` of `generator`,
  /// with c_r = visit_cost[states[r]] (c = 1 when `visit_cost` is empty).
  /// Throws resilience::SolveError(kInvalidInput) when pi_A is not positive:
  /// absorption is not certain from the start, so the mean is infinite.
  double mean_time(const linalg::Vector& pi,
                   const linalg::Vector& visit_cost = {}) const;
};

/// Builds the renewal chain of `weights` (generator rates or transition
/// probabilities; only off-diagonal entries count) seen from `initial`.
/// Throws std::out_of_range when `initial` is not a state and
/// std::invalid_argument when it is absorbing.
RenewalChain renewal_chain(const linalg::CsrMatrix& weights,
                           StateIndex initial);

/// Mean time to absorption from `initial`: gth_stationary on the renewal
/// chain, then RenewalChain::mean_time. `visit_cost` (indexed by state of
/// `weights`) weights each unit of stay, as described at the top of this
/// file. Returns 0 when `initial` is absorbing. `cancel` is polled by the
/// elimination. Throws std::out_of_range for a bad `initial`,
/// std::invalid_argument when no state is absorbing or `visit_cost` has the
/// wrong size, and resilience::SolveError(kInvalidInput) when absorption is
/// not certain from `initial`.
double mean_time_to_absorption(const linalg::CsrMatrix& weights,
                               StateIndex initial,
                               const linalg::Vector& visit_cost = {},
                               const robust::CancelToken& cancel = {});

/// Reliability R(t): probability the chain (with absorbing failure states)
/// has not been absorbed by time t, starting from `initial`.
double reliability_at(const Ctmc& absorbing_chain, const linalg::Vector& initial,
                      double t);

/// Hazard rate h(t) ~= -[ln R(t + dt) - ln R(t)] / dt.
double hazard_rate(const Ctmc& absorbing_chain, const linalg::Vector& initial,
                   double t, double dt);

}  // namespace rascad::markov

// Absorbing-chain (reliability) analysis.
//
// RAScad's reliability measures treat the system-failure states of an
// availability chain as absorbing: MTTF is the mean time to absorption,
// R(T) the probability of no absorption by T, and the hazard rate the
// conditional failure intensity over a time increment (paper, Section 4).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/dense.hpp"
#include "markov/ctmc.hpp"
#include "markov/transient.hpp"

namespace rascad::markov {

/// Returns a copy of `chain` with all outgoing transitions removed from the
/// given states (making them absorbing). Throws std::invalid_argument if
/// every state would be absorbing.
Ctmc make_absorbing(const Ctmc& chain, const std::vector<StateIndex>& absorbing);

/// Convenience: make every reward-0 (down) state absorbing — the standard
/// availability-model -> reliability-model conversion.
Ctmc make_down_states_absorbing(const Ctmc& chain);

/// Analysis of a chain that has at least one absorbing state reachable from
/// the transient class.
class AbsorbingAnalysis {
 public:
  /// Identifies absorbing states as those with zero exit rate. Throws
  /// std::invalid_argument if there are none, or if none is reachable.
  explicit AbsorbingAnalysis(const Ctmc& chain);

  /// Mean time to absorption starting from `initial` (a distribution over
  /// all states; mass on absorbing states contributes zero time).
  double mean_time_to_absorption(const linalg::Vector& initial) const;

  /// Mean time to absorption from a single starting state.
  double mean_time_to_absorption(StateIndex start) const;

  /// Probability of being absorbed in `target` (an absorbing state) when
  /// starting from `start`. Throws std::invalid_argument if target is not
  /// absorbing.
  double absorption_probability(StateIndex start, StateIndex target) const;

  /// Expected total time spent in transient state `j` before absorption,
  /// starting from `start`.
  double expected_visit_time(StateIndex start, StateIndex j) const;

  const std::vector<StateIndex>& absorbing_states() const noexcept {
    return absorbing_;
  }
  const std::vector<StateIndex>& transient_states() const noexcept {
    return transient_;
  }

 private:
  Ctmc chain_;  // owned copy: the analysis outlives the caller's chain
  std::vector<StateIndex> absorbing_;
  std::vector<StateIndex> transient_;
  std::vector<std::ptrdiff_t> transient_pos_;  // state -> position or -1
  // tau_[k] = expected time to absorption from transient_[k].
  linalg::Vector tau_;
  // Dense factor data for absorption probabilities / visit times:
  // fundamental = (-Q_TT)^{-1}, stored explicitly (transient class is small).
  linalg::DenseMatrix fundamental_;
};

/// Reliability R(t): probability the chain (with absorbing failure states)
/// has not been absorbed by time t, starting from `initial`.
double reliability_at(const Ctmc& absorbing_chain, const linalg::Vector& initial,
                      double t);

/// Hazard rate h(t) ~= -[ln R(t + dt) - ln R(t)] / dt.
double hazard_rate(const Ctmc& absorbing_chain, const linalg::Vector& initial,
                   double t, double dt);

}  // namespace rascad::markov

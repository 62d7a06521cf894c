#include "markov/absorbing.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/lu.hpp"

namespace rascad::markov {

Ctmc make_absorbing(const Ctmc& chain,
                    const std::vector<StateIndex>& absorbing) {
  std::vector<bool> is_absorbing(chain.size(), false);
  for (StateIndex s : absorbing) {
    if (s >= chain.size()) {
      throw std::out_of_range("make_absorbing: state out of range");
    }
    is_absorbing[s] = true;
  }
  std::size_t absorbing_count = 0;
  for (bool b : is_absorbing) absorbing_count += b ? 1 : 0;
  if (absorbing_count == chain.size()) {
    throw std::invalid_argument("make_absorbing: no transient states left");
  }
  CtmcBuilder b;
  for (StateIndex i = 0; i < chain.size(); ++i) {
    b.add_state(chain.state_name(i), chain.reward(i));
  }
  const auto& q = chain.generator();
  for (StateIndex i = 0; i < chain.size(); ++i) {
    if (is_absorbing[i]) continue;
    const auto row = q.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] != i) b.add_transition(i, row.cols[k], row.values[k]);
    }
  }
  return b.build();
}

Ctmc make_down_states_absorbing(const Ctmc& chain) {
  return make_absorbing(chain, chain.down_states());
}

AbsorbingAnalysis::AbsorbingAnalysis(const Ctmc& chain) : chain_(chain) {
  for (StateIndex i = 0; i < chain.size(); ++i) {
    if (chain.exit_rate(i) == 0.0) {
      absorbing_.push_back(i);
    } else {
      transient_.push_back(i);
    }
  }
  if (absorbing_.empty()) {
    throw std::invalid_argument("AbsorbingAnalysis: no absorbing states");
  }
  if (transient_.empty()) {
    throw std::invalid_argument("AbsorbingAnalysis: no transient states");
  }
  transient_pos_.assign(chain.size(), -1);
  for (std::size_t k = 0; k < transient_.size(); ++k) {
    transient_pos_[transient_[k]] = static_cast<std::ptrdiff_t>(k);
  }

  // Fundamental matrix N = (-Q_TT)^{-1}; N[i][j] is the expected total time
  // in transient state j starting from transient state i.
  const std::size_t m = transient_.size();
  linalg::DenseMatrix neg_qtt(m, m);
  const auto& q = chain.generator();
  for (std::size_t r = 0; r < m; ++r) {
    const auto row = q.row(transient_[r]);
    for (std::size_t k = 0; k < row.size; ++k) {
      const std::ptrdiff_t pos = transient_pos_[row.cols[k]];
      if (pos >= 0) {
        neg_qtt(r, static_cast<std::size_t>(pos)) -= row.values[k];
      }
    }
  }
  linalg::LuFactorization lu(neg_qtt);
  fundamental_ = linalg::DenseMatrix(m, m);
  linalg::Vector unit(m, 0.0);
  for (std::size_t c = 0; c < m; ++c) {
    unit[c] = 1.0;
    const linalg::Vector col = lu.solve(unit);
    unit[c] = 0.0;
    for (std::size_t r = 0; r < m; ++r) fundamental_(r, c) = col[r];
  }
  tau_.assign(m, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) tau_[r] += fundamental_(r, c);
  }
}

double AbsorbingAnalysis::mean_time_to_absorption(
    const linalg::Vector& initial) const {
  if (initial.size() != chain_.size()) {
    throw std::invalid_argument(
        "mean_time_to_absorption: initial size mismatch");
  }
  double acc = 0.0;
  for (std::size_t k = 0; k < transient_.size(); ++k) {
    acc += initial[transient_[k]] * tau_[k];
  }
  return acc;
}

double AbsorbingAnalysis::mean_time_to_absorption(StateIndex start) const {
  if (start >= chain_.size()) {
    throw std::out_of_range("mean_time_to_absorption: state out of range");
  }
  const std::ptrdiff_t pos = transient_pos_[start];
  if (pos < 0) return 0.0;  // already absorbed
  return tau_[static_cast<std::size_t>(pos)];
}

double AbsorbingAnalysis::absorption_probability(StateIndex start,
                                                 StateIndex target) const {
  if (start >= chain_.size() || target >= chain_.size()) {
    throw std::out_of_range("absorption_probability: state out of range");
  }
  if (chain_.exit_rate(target) != 0.0) {
    throw std::invalid_argument(
        "absorption_probability: target is not absorbing");
  }
  const std::ptrdiff_t spos = transient_pos_[start];
  if (spos < 0) return start == target ? 1.0 : 0.0;
  // B = N * R with R[j][a] = q(transient_j -> a).
  double acc = 0.0;
  const auto& q = chain_.generator();
  for (std::size_t j = 0; j < transient_.size(); ++j) {
    const double rate = q.at(transient_[j], target);
    if (rate > 0.0) {
      acc += fundamental_(static_cast<std::size_t>(spos), j) * rate;
    }
  }
  return acc;
}

double AbsorbingAnalysis::expected_visit_time(StateIndex start,
                                              StateIndex j) const {
  if (start >= chain_.size() || j >= chain_.size()) {
    throw std::out_of_range("expected_visit_time: state out of range");
  }
  const std::ptrdiff_t spos = transient_pos_[start];
  const std::ptrdiff_t jpos = transient_pos_[j];
  if (spos < 0 || jpos < 0) return 0.0;
  return fundamental_(static_cast<std::size_t>(spos),
                      static_cast<std::size_t>(jpos));
}

double reliability_at(const Ctmc& absorbing_chain,
                      const linalg::Vector& initial, double t) {
  const linalg::Vector pit =
      transient_distribution(absorbing_chain, initial, t);
  double alive = 0.0;
  for (StateIndex i = 0; i < absorbing_chain.size(); ++i) {
    if (absorbing_chain.exit_rate(i) > 0.0) alive += pit[i];
  }
  return alive;
}

double hazard_rate(const Ctmc& absorbing_chain, const linalg::Vector& initial,
                   double t, double dt) {
  if (!(dt > 0.0)) {
    throw std::invalid_argument("hazard_rate: dt must be positive");
  }
  const double r0 = reliability_at(absorbing_chain, initial, t);
  const double r1 = reliability_at(absorbing_chain, initial, t + dt);
  if (r0 <= 0.0 || r1 <= 0.0) return 0.0;
  return -(std::log(r1) - std::log(r0)) / dt;
}

}  // namespace rascad::markov

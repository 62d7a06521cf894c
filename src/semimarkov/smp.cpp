#include "semimarkov/smp.hpp"

#include "resilience/solve_error.hpp"

#include <stdexcept>
#include <utility>

#include "markov/absorbing.hpp"

namespace rascad::semimarkov {

std::size_t SmpBuilder::add_state(std::string name, double reward,
                                  dist::DistributionPtr sojourn) {
  if (reward < 0.0) {
    throw std::invalid_argument("SmpBuilder: reward must be non-negative");
  }
  for (const State& s : states_) {
    if (s.name == name) {
      throw std::invalid_argument("SmpBuilder: duplicate state name '" + name +
                                  "'");
    }
  }
  states_.push_back({std::move(name), reward, std::move(sojourn)});
  return states_.size() - 1;
}

void SmpBuilder::add_transition(std::size_t from, std::size_t to,
                                double probability) {
  if (from >= states_.size() || to >= states_.size()) {
    throw std::out_of_range("SmpBuilder: transition endpoint out of range");
  }
  if (!(probability > 0.0) || probability > 1.0 + 1e-12) {
    throw std::invalid_argument("SmpBuilder: probability must be in (0, 1]");
  }
  arcs_.push_back({from, to, probability});
}

void SmpBuilder::set_sojourn(std::size_t state,
                             dist::DistributionPtr sojourn) {
  if (state >= states_.size()) {
    throw std::out_of_range("SmpBuilder::set_sojourn: state out of range");
  }
  if (!sojourn) {
    throw std::invalid_argument("SmpBuilder::set_sojourn: null distribution");
  }
  states_[state].sojourn = std::move(sojourn);
}

void SmpBuilder::set_exponential(
    std::size_t from,
    const std::vector<std::pair<std::size_t, double>>& rate_arcs) {
  if (from >= states_.size()) {
    throw std::out_of_range("SmpBuilder::set_exponential: state out of range");
  }
  if (rate_arcs.empty()) {
    throw std::invalid_argument("SmpBuilder::set_exponential: no arcs");
  }
  double total = 0.0;
  for (const auto& [to, rate] : rate_arcs) {
    if (to >= states_.size()) {
      throw std::out_of_range(
          "SmpBuilder::set_exponential: target out of range");
    }
    if (!(rate > 0.0)) {
      throw std::invalid_argument(
          "SmpBuilder::set_exponential: rate must be positive");
    }
    total += rate;
  }
  states_[from].sojourn = dist::exponential(total);
  for (const auto& [to, rate] : rate_arcs) {
    arcs_.push_back({from, to, rate / total});
  }
}

SemiMarkovProcess SmpBuilder::build() const {
  if (states_.empty()) {
    throw std::invalid_argument("SmpBuilder: process has no states");
  }
  markov::DtmcBuilder db;
  for (const State& s : states_) {
    if (!s.sojourn) {
      throw std::invalid_argument("SmpBuilder: state '" + s.name +
                                  "' has no sojourn distribution");
    }
    db.add_state(s.name);
  }
  for (const Arc& a : arcs_) db.add_transition(a.from, a.to, a.p);

  SemiMarkovProcess smp;
  smp.embedded_ = db.build();
  smp.states_.reserve(states_.size());
  for (const State& s : states_) {
    smp.states_.push_back({s.name, s.reward, s.sojourn});
  }
  return smp;
}

SemiMarkovProcess SmpBuilder::build_with_absorbing() const {
  if (states_.empty()) {
    throw std::invalid_argument("SmpBuilder: process has no states");
  }
  std::vector<double> out_mass(states_.size(), 0.0);
  for (const Arc& a : arcs_) out_mass[a.from] += a.p;

  markov::DtmcBuilder db;
  SemiMarkovProcess smp;
  smp.absorbing_.assign(states_.size(), false);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const State& s = states_[i];
    db.add_state(s.name);
    if (out_mass[i] == 0.0) {
      smp.absorbing_[i] = true;
    } else if (!s.sojourn) {
      throw std::invalid_argument("SmpBuilder: transient state '" + s.name +
                                  "' has no sojourn distribution");
    }
  }
  for (const Arc& a : arcs_) db.add_transition(a.from, a.to, a.p);
  // Embedded-chain convention: absorbing states self-loop.
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (smp.absorbing_[i]) db.add_transition(i, i, 1.0);
  }
  smp.embedded_ = db.build();
  smp.states_.reserve(states_.size());
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const State& s = states_[i];
    smp.states_.push_back(
        {s.name, s.reward,
         s.sojourn ? s.sojourn : dist::deterministic(0.0)});
  }
  return smp;
}

std::optional<std::size_t> SemiMarkovProcess::find_state(
    const std::string& name) const {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].name == name) return i;
  }
  return std::nullopt;
}

bool SemiMarkovProcess::is_absorbing(std::size_t i) const {
  if (i >= states_.size()) {
    throw std::out_of_range("SemiMarkovProcess::is_absorbing: out of range");
  }
  return !absorbing_.empty() && absorbing_[i];
}

double SemiMarkovProcess::mean_time_to_absorption(
    std::size_t start, const robust::CancelToken& cancel) const {
  if (start >= states_.size()) {
    throw std::out_of_range(
        "SemiMarkovProcess::mean_time_to_absorption: out of range");
  }
  // Each visit to state i costs its mean sojourn. A transient state whose
  // embedded row only loops back to itself is never left; the renewal
  // chain would take it for absorbing, so it is refused here.
  const auto& p = embedded_.transition_matrix();
  linalg::Vector sojourn(size(), 0.0);
  for (std::size_t i = 0; i < size(); ++i) {
    if (is_absorbing(i)) continue;
    sojourn[i] = mean_sojourn(i);
    if (markov::is_absorbing(p, i)) {
      throw resilience::SolveError(
          resilience::SolveCause::kInvalidInput,
          "SemiMarkovProcess::mean_time_to_absorption",
          "state " + states_[i].name + " is never left (infinite mean time)");
    }
  }
  return markov::mean_time_to_absorption(p, start, sojourn, cancel);
}

linalg::Vector SemiMarkovProcess::steady_state() const {
  if (!absorbing_.empty()) {
    for (std::size_t i = 0; i < absorbing_.size(); ++i) {
      if (absorbing_[i]) {
        throw resilience::SolveError(
            resilience::SolveCause::kInvalidInput,
            "SemiMarkovProcess::steady_state",
            "process has absorbing states");
      }
    }
  }
  const linalg::Vector nu = embedded_.stationary();
  linalg::Vector pi(size());
  for (std::size_t i = 0; i < size(); ++i) {
    pi[i] = nu[i] * states_[i].sojourn->mean();
  }
  linalg::normalize_sum(pi);
  return pi;
}

double SemiMarkovProcess::steady_state_reward() const {
  const linalg::Vector pi = steady_state();
  double acc = 0.0;
  for (std::size_t i = 0; i < size(); ++i) acc += pi[i] * states_[i].reward;
  return acc;
}

}  // namespace rascad::semimarkov

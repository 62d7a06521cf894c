#include "markov/absorbing.hpp"

#include <cmath>
#include <stdexcept>

#include "markov/steady_state.hpp"
#include "resilience/solve_error.hpp"

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

bool is_absorbing(const linalg::CsrMatrix& weights, StateIndex i) {
  const auto row = weights.row(i);
  for (std::size_t k = 0; k < row.size; ++k) {
    if (row.cols[k] != i && row.values[k] > 0.0) return false;
  }
  return true;
}

RenewalChain renewal_chain(const linalg::CsrMatrix& weights,
                           StateIndex initial) {
  const std::size_t n = weights.rows();
  if (initial >= n) {
    throw std::out_of_range("renewal_chain: initial state out of range");
  }
  if (is_absorbing(weights, initial)) {
    throw std::invalid_argument("renewal_chain: initial state is absorbing");
  }

  // Transient states reachable from `initial`, in chain order; `pos` maps
  // a state to its renewal index. Absorbing states stay unreached and map
  // to the sink A, the last index.
  constexpr std::ptrdiff_t kUnreached = -1;
  std::vector<std::ptrdiff_t> pos(n, kUnreached);
  std::vector<StateIndex> frontier{initial};
  pos[initial] = 0;
  while (!frontier.empty()) {
    const StateIndex i = frontier.back();
    frontier.pop_back();
    const auto row = weights.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      const StateIndex j = row.cols[k];
      if (pos[j] == kUnreached && !is_absorbing(weights, j)) {
        pos[j] = 0;
        frontier.push_back(j);
      }
    }
  }
  RenewalChain out;
  for (StateIndex i = 0; i < n; ++i) {
    if (pos[i] != kUnreached) {
      pos[i] = static_cast<std::ptrdiff_t>(out.states.size());
      out.states.push_back(i);
    }
  }

  // Arcs first, in source row order (parallel arcs into A sum in that
  // order), then each diagonal as the negated sum of its row's arcs.
  const std::size_t sink = out.sink();
  linalg::CsrBuilder builder(sink + 1, sink + 1);
  std::vector<double> exit(sink + 1, 0.0);
  const auto arc = [&](std::size_t from, std::size_t to, double w) {
    builder.add(from, to, w);
    exit[from] += w;
  };
  for (std::size_t r = 0; r < sink; ++r) {
    const auto row = weights.row(out.states[r]);
    for (std::size_t k = 0; k < row.size; ++k) {
      const StateIndex j = row.cols[k];
      if (j == out.states[r] || !(row.values[k] > 0.0)) continue;
      arc(r, pos[j] == kUnreached ? sink : static_cast<std::size_t>(pos[j]),
          row.values[k]);
    }
  }
  arc(sink, static_cast<std::size_t>(pos[initial]), 1.0);
  for (std::size_t r = 0; r <= sink; ++r) builder.add(r, r, -exit[r]);
  out.generator = builder.build();
  return out;
}

double RenewalChain::mean_time(const linalg::Vector& pi,
                               const linalg::Vector& visit_cost) const {
  const double pi_sink = pi.at(sink());
  if (!(pi_sink > 0.0)) {
    throw resilience::SolveError(
        resilience::SolveCause::kInvalidInput, "mean_time_to_absorption",
        "absorption is not certain from the initial state (infinite mean "
        "time)");
  }
  double visits = 0.0;
  for (std::size_t r = 0; r < sink(); ++r) {
    visits += visit_cost.empty() ? pi[r] : pi[r] * visit_cost[states[r]];
  }
  return visits / pi_sink;
}

double mean_time_to_absorption(const linalg::CsrMatrix& weights,
                               StateIndex initial,
                               const linalg::Vector& visit_cost,
                               const robust::CancelToken& cancel) {
  const std::size_t n = weights.rows();
  if (initial >= n) {
    throw std::out_of_range(
        "mean_time_to_absorption: initial state out of range");
  }
  if (!visit_cost.empty() && visit_cost.size() != n) {
    throw std::invalid_argument(
        "mean_time_to_absorption: visit_cost size mismatch");
  }
  bool any_absorbing = false;
  for (StateIndex i = 0; i < n && !any_absorbing; ++i) {
    any_absorbing = is_absorbing(weights, i);
  }
  if (!any_absorbing) {
    throw std::invalid_argument("mean_time_to_absorption: no absorbing states");
  }
  if (is_absorbing(weights, initial)) return 0.0;
  const RenewalChain renewal = renewal_chain(weights, initial);
  return renewal.mean_time(gth_stationary(renewal.generator, cancel),
                           visit_cost);
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

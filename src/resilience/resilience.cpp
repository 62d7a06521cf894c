#include "resilience/resilience.hpp"

#include <chrono>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "markov/absorbing.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/robust.hpp"

namespace rascad::resilience {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void check_budget(std::size_t states, const ResilienceConfig& config,
                  const char* episode_name) {
  if (states > config.max_states) {
    throw SolveError(SolveCause::kBudgetExceeded, episode_name,
                     "chain has " + std::to_string(states) +
                         " states, budget is " +
                         std::to_string(config.max_states));
  }
}

/// The single pass every entry point makes: `solve` (a GTH elimination
/// polling config.base.cancel), then `verify` (an independent health check
/// that may clamp and renormalize the vector in place), recorded as one
/// attempt in `trace`. Returns the verified vector; throws SolveError with
/// the attempt's cause when either step fails.
template <typename SolveFn, typename VerifyFn>
linalg::Vector run_episode(const ResilienceConfig& config,
                           const char* episode_name, SolveTrace& trace,
                           SolveFn&& solve, VerifyFn&& verify) {
  obs::Span episode_span("ladder.episode");
  if (episode_span.active()) episode_span.set_detail(episode_name);
  const auto start = Clock::now();
  RungAttempt attempt;
  linalg::Vector pi;
  std::optional<SolveError> failure;
  try {
    pi = solve();
    attempt.iterations = pi.size() - 1;
    const HealthReport health = verify(pi);
    attempt.clamped_mass = health.clamped_mass;
    attempt.residual_check = health.residual_inf;
    if (!health.ok) {
      obs::emit_event("health.check_failed",
                      {{"episode", episode_name}, {"detail", health.detail}});
      failure.emplace(health.failure.value_or(SolveCause::kNanOrInf),
                      to_string(attempt.rung), health.detail);
    }
  } catch (const SolveError& e) {
    attempt.iterations = e.iterations();
    failure = e;
  } catch (const std::exception& e) {
    failure.emplace(SolveCause::kInvalidInput, to_string(attempt.rung),
                    e.what());
  }
  attempt.success = !failure;
  if (failure) {
    attempt.cause = failure->cause();
    attempt.message = failure->what();
  }
  attempt.duration_ms = ms_since(start);
  trace.attempts.push_back(attempt);
  trace.success = attempt.success;
  trace.final_rung = attempt.rung;
  trace.total_ms = attempt.duration_ms;
  if (obs::enabled()) {
    static obs::Counter& attempts_total =
        obs::Registry::global().counter("ladder.attempts");
    static obs::Counter& failures =
        obs::Registry::global().counter("ladder.attempt_failures");
    static obs::Histogram& attempt_ms =
        obs::Registry::global().histogram("ladder.attempt_ms");
    attempts_total.inc();
    attempt_ms.observe_ms(attempt.duration_ms);
    if (failure) {
      failures.inc();
      obs::emit_event("ladder.attempt_failed",
                      {{"episode", episode_name},
                       {"rung", to_string(attempt.rung)},
                       {"cause", to_string(attempt.cause)},
                       {"message", attempt.message}});
    }
  }
  if (!failure) return pi;
  const robust::CancelToken& stop = config.base.cancel;
  if (stop.stop_requested() &&
      (attempt.cause == SolveCause::kCancelled ||
       attempt.cause == SolveCause::kDeadlineExceeded)) {
    robust::record_stop(stop, episode_name);
  }
  throw SolveError(attempt.cause, episode_name,
                   attempt.message + " (" + trace.summary() + ")",
                   attempt.iterations);
}

}  // namespace

ResilienceConfig config_from(const markov::SteadyStateOptions& opts,
                             const robust::CancelToken& loop_cancel) {
  ResilienceConfig config;
  config.base = opts;
  config.base.cancel = robust::CancelToken::any_of(opts.cancel, loop_cancel);
  return config;
}

std::string SolveTrace::summary() const {
  std::ostringstream os;
  if (source != SolveSource::kFresh) {
    os << '[' << to_string(source) << "] ";
  }
  bool first = true;
  for (const auto& a : attempts) {
    if (!first) os << " -> ";
    first = false;
    os << to_string(a.rung);
    if (a.success) {
      os << " ok";
    } else {
      os << " failed (" << to_string(a.cause) << ")";
    }
  }
  os << " [" << attempts.size() << (attempts.size() == 1 ? " attempt, "
                                                         : " attempts, ");
  os.precision(3);
  os << total_ms << " ms]";
  return os.str();
}

ResilientResult solve_steady_state_resilient(const markov::Ctmc& chain,
                                             const ResilienceConfig& config) {
  check_budget(chain.size(), config, "solve_steady_state_resilient");
  ResilientResult out;
  out.result.pi = run_episode(
      config, "solve_steady_state_resilient", out.trace,
      [&] {
        return markov::gth_stationary(chain.generator(), config.base.cancel);
      },
      [&](linalg::Vector& pi) {
        return check_stationary(chain, pi, config.health,
                                config.base.tolerance);
      });
  out.result.residual = out.trace.attempts.back().residual_check;
  return out;
}

ResilientResult stationary_resilient(const markov::Dtmc& dtmc,
                                     const ResilienceConfig& config) {
  check_budget(dtmc.size(), config, "stationary_resilient");
  ResilientResult out;
  out.result.pi = run_episode(
      config, "stationary_resilient", out.trace,
      [&] {
        return markov::gth_stationary(dtmc.transition_matrix(),
                                      config.base.cancel);
      },
      [&](linalg::Vector& pi) {
        HealthReport report = check_distribution(pi, config.health);
        if (!report.ok) return report;
        // Independent fixed-point residual ||pi P - pi||_inf; P is
        // row-stochastic so no rate scaling is needed.
        linalg::Vector r = dtmc.transition_matrix().mul_transpose(pi);
        for (std::size_t i = 0; i < r.size(); ++i) r[i] -= pi[i];
        report.residual_inf = linalg::norm_inf(r);
        report.residual_l1 = linalg::norm1(r);
        const double bound =
            config.health.residual_factor * config.base.tolerance;
        if (!(report.residual_inf <= bound)) {
          report.ok = false;
          report.failure = SolveCause::kNonConverged;
          std::ostringstream os;
          os << "independent residual " << report.residual_inf
             << " exceeds bound " << bound;
          report.detail = os.str();
        }
        return report;
      });
  out.result.residual = out.trace.attempts.back().residual_check;
  return out;
}

ResilientResult smp_steady_state_resilient(
    const semimarkov::SemiMarkovProcess& process,
    const ResilienceConfig& config) {
  for (std::size_t i = 0; i < process.size(); ++i) {
    if (process.is_absorbing(i)) {
      throw SolveError(SolveCause::kInvalidInput,
                       "smp_steady_state_resilient",
                       "process has absorbing states; steady state is not "
                       "defined");
    }
  }
  ResilientResult out = stationary_resilient(process.embedded(), config);
  linalg::Vector& pi = out.result.pi;
  for (std::size_t i = 0; i < process.size(); ++i) {
    pi[i] *= process.mean_sojourn(i);
  }
  const HealthReport report = check_distribution(pi, config.health);
  if (!report.ok) {
    obs::emit_event("health.check_failed",
                    {{"episode", "smp_steady_state_resilient"},
                     {"detail", report.detail}});
    throw SolveError(report.failure.value_or(SolveCause::kNanOrInf),
                     "smp_steady_state_resilient", report.detail);
  }
  return out;
}

double mttf_resilient(const markov::Ctmc& chain, markov::StateIndex initial,
                      const ResilienceConfig& config, SolveTrace* trace) {
  if (initial >= chain.size()) {
    throw std::out_of_range("mttf_resilient: initial state out of range");
  }
  if (chain.down_states().empty()) return 0.0;
  check_budget(chain.size(), config, "mttf_resilient");
  const markov::Ctmc rel = markov::make_down_states_absorbing(chain);
  if (!(rel.exit_rate(initial) > 0.0)) return 0.0;

  // Transient states reachable from `initial`, in chain order; `pos` maps
  // a chain state to its renewal-chain index. Absorbing states map to the
  // sink A, the last index.
  constexpr std::ptrdiff_t kUnreached = -1;
  std::vector<std::ptrdiff_t> pos(rel.size(), kUnreached);
  std::vector<markov::StateIndex> frontier{initial};
  pos[initial] = 0;
  while (!frontier.empty()) {
    const markov::StateIndex i = frontier.back();
    frontier.pop_back();
    const auto row = rel.generator().row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      const markov::StateIndex j = row.cols[k];
      if (pos[j] == kUnreached && rel.exit_rate(j) > 0.0) {
        pos[j] = 0;
        frontier.push_back(j);
      }
    }
  }
  std::vector<markov::StateIndex> transient;
  for (markov::StateIndex i = 0; i < rel.size(); ++i) {
    if (pos[i] != kUnreached) {
      pos[i] = static_cast<std::ptrdiff_t>(transient.size());
      transient.push_back(i);
    }
  }
  const std::size_t sink = transient.size();

  // The renewal chain: every arc into an absorbing state goes to A, and A
  // returns to `initial` at rate 1, so pi_A is the renewal rate
  // 1 / (MTTF + 1) and the transient mass is MTTF / (MTTF + 1).
  markov::CtmcBuilder builder;
  for (std::size_t r = 0; r < sink; ++r) {
    builder.add_state("s" + std::to_string(transient[r]), 1.0);
  }
  builder.add_state("A", 0.0);
  for (std::size_t r = 0; r < sink; ++r) {
    const auto row = rel.generator().row(transient[r]);
    for (std::size_t k = 0; k < row.size; ++k) {
      const markov::StateIndex j = row.cols[k];
      if (j == transient[r]) continue;
      const std::size_t to =
          pos[j] == kUnreached ? sink : static_cast<std::size_t>(pos[j]);
      builder.add_transition(r, to, row.values[k]);
    }
  }
  builder.add_transition(sink, static_cast<std::size_t>(pos[initial]), 1.0);
  const markov::Ctmc renewal = builder.build();

  SolveTrace local_trace;
  SolveTrace& tr = trace ? *trace : local_trace;
  const linalg::Vector pi = run_episode(
      config, "mttf_resilient", tr,
      [&] {
        return markov::gth_stationary(renewal.generator(), config.base.cancel);
      },
      [&](linalg::Vector& candidate) {
        HealthReport report = check_stationary(renewal, candidate,
                                               config.health,
                                               config.base.tolerance);
        if (report.ok && !(candidate[sink] > 0.0)) {
          report.ok = false;
          report.failure = SolveCause::kInvalidInput;
          report.detail =
              "failure is not certain from the initial state (infinite "
              "MTTF)";
        }
        return report;
      });
  double up_mass = 0.0;
  for (std::size_t r = 0; r < sink; ++r) up_mass += pi[r];
  return up_mass / pi[sink];
}

}  // namespace rascad::resilience

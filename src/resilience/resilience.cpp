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
  SolveAttempt attempt;
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
      failure.emplace(health.failure.value_or(SolveCause::kNanOrInf), "gth",
                      health.detail);
    }
  } catch (const SolveError& e) {
    attempt.iterations = e.iterations();
    failure = e;
  } catch (const std::exception& e) {
    failure.emplace(SolveCause::kInvalidInput, "gth", e.what());
  }
  attempt.success = !failure;
  if (failure) {
    attempt.cause = failure->cause();
    attempt.message = failure->what();
  }
  attempt.duration_ms = ms_since(start);
  trace.attempts.push_back(attempt);
  trace.success = attempt.success;
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
    if (a.success) {
      os << "gth ok";
    } else {
      os << "gth failed (" << to_string(a.cause) << ")";
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
        return check_stationary(chain.generator(), pi, config.health,
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

  const markov::RenewalChain renewal =
      markov::renewal_chain(rel.generator(), initial);

  SolveTrace local_trace;
  SolveTrace& tr = trace ? *trace : local_trace;
  const linalg::Vector pi = run_episode(
      config, "mttf_resilient", tr,
      [&] {
        return markov::gth_stationary(renewal.generator, config.base.cancel);
      },
      [&](linalg::Vector& candidate) {
        HealthReport report = check_stationary(
            renewal.generator, candidate, config.health, config.base.tolerance);
        if (report.ok && !(candidate[renewal.sink()] > 0.0)) {
          report.ok = false;
          report.failure = SolveCause::kInvalidInput;
          report.detail =
              "failure is not certain from the initial state (infinite "
              "MTTF)";
        }
        return report;
      });
  return renewal.mean_time(pi);
}

}  // namespace rascad::resilience

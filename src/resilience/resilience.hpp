// The solver resilience layer: one verified solve per entry point.
//
// Every stationary entry point of the analysis stack (CTMC steady state,
// DTMC stationary vector, semi-Markov steady state, MTTF) gets a wrapper
// here that makes a single pass:
//
//   state budget -> GTH elimination -> independent health check
//
// The elimination is markov::gth_stationary: subtraction-free, so its
// result is componentwise accurate. The health checks of health.hpp (NaN/Inf
// scan, negative-mass clamping, a residual recomputed from the generator)
// verify it without trusting the elimination before it is accepted. The
// attempt, successful or not, is recorded in a SolveTrace that callers and
// reports can inspect. A reducible chain, a failed check, an exhausted
// budget or a stopped token throws SolveError with its cause; there is no
// fallback solver to escalate to.
//
// The state budget and the episode's stop token live in ResilienceConfig;
// the elimination polls the token once per row of its dense workspace and
// once per eliminated state.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "markov/ctmc.hpp"
#include "markov/dtmc.hpp"
#include "markov/steady_state.hpp"
#include "resilience/health.hpp"
#include "resilience/solve_error.hpp"
#include "robust/cancel.hpp"
#include "semimarkov/smp.hpp"

namespace rascad::resilience {

struct ResilienceConfig {
  /// Residual tolerance of the health check, plus the episode's stop
  /// token: `base.cancel` is polled throughout the elimination, and a
  /// stopped token aborts the episode with SolveError(kCancelled /
  /// kDeadlineExceeded); an episode deadline is
  /// `base.cancel = robust::CancelToken::with_deadline_ms(...)`.
  markov::SteadyStateOptions base;
  /// State-space budget: chains larger than this are refused up front with
  /// SolveError(kBudgetExceeded) instead of attempting the O(n^3)
  /// elimination.
  std::size_t max_states = 200'000;
  HealthCheckConfig health;
};

/// The one rule that turns a caller's options into a config: `opts` whole,
/// with the stop token of the surrounding parallel loop (`loop_cancel`)
/// joined into `base.cancel`, so stopping either stops the solve. Inert
/// tokens add nothing, so the healthy path stays token-free.
ResilienceConfig config_from(const markov::SteadyStateOptions& opts,
                             const robust::CancelToken& loop_cancel = {});

/// One GTH solve attempt, successful or not.
struct SolveAttempt {
  bool success = false;
  SolveCause cause = SolveCause::kNonConverged;  // valid when !success
  std::string message;                           // failure detail
  /// States eliminated (n - 1 for a completed elimination of an n-state
  /// chain).
  std::size_t iterations = 0;
  double residual_check = 0.0;  // independent ||pi Q||_inf re-check
  double clamped_mass = 0.0;    // negative mass clamped by health layer
  double duration_ms = 0.0;
};

/// Where a solution came from, now that block solves can be memoized. A
/// cache hit still carries the attempts of the episode that originally
/// produced the numbers, so resilience reporting stays honest about how
/// they were computed.
enum class SolveSource {
  kFresh,     // an episode ran for this request
  kCacheHit,  // copied from the solve-memoization cache
};

inline const char* to_string(SolveSource source) {
  switch (source) {
    case SolveSource::kFresh: return "fresh";
    case SolveSource::kCacheHit: return "cache-hit";
  }
  return "unknown";
}

/// Full record of a solve episode.
struct SolveTrace {
  std::vector<SolveAttempt> attempts;
  bool success = false;
  double total_ms = 0.0;
  /// Provenance of the numbers this trace vouches for.
  SolveSource source = SolveSource::kFresh;

  /// Attempts after the first. An episode makes one attempt, so this is 0;
  /// kept for trace consumers that tally it.
  std::size_t escalations() const noexcept {
    return attempts.empty() ? 0 : attempts.size() - 1;
  }
  /// States eliminated across every attempt of the episode.
  std::size_t total_iterations() const noexcept {
    std::size_t acc = 0;
    for (const auto& a : attempts) acc += a.iterations;
    return acc;
  }
  /// One-line human-readable summary, e.g. "gth ok [1 attempt, 0.41 ms]" or
  /// "gth failed (invalid-input) [1 attempt, 0.02 ms]"; non-fresh traces
  /// are prefixed with their provenance, e.g.
  /// "[cache-hit] gth ok [1 attempt, 0.08 ms]".
  std::string summary() const;
};

struct ResilientResult {
  markov::SteadyStateResult result;
  SolveTrace trace;
};

/// Steady-state distribution of an irreducible CTMC. Throws SolveError
/// (kBudgetExceeded, kInvalidInput for a reducible chain, the health
/// check's cause, or the stop token's; the trace summary is embedded in
/// the message) when the solve does not produce a verified vector.
ResilientResult solve_steady_state_resilient(
    const markov::Ctmc& chain, const ResilienceConfig& config = {});

/// DTMC stationary distribution, verified by the fixed-point residual
/// ||pi P - pi||_inf.
ResilientResult stationary_resilient(const markov::Dtmc& dtmc,
                                     const ResilienceConfig& config = {});

/// Semi-Markov steady state: the embedded DTMC goes through
/// stationary_resilient, then the sojourn-time ratio formula is applied and
/// health-checked.
ResilientResult smp_steady_state_resilient(
    const semimarkov::SemiMarkovProcess& process,
    const ResilienceConfig& config = {});

/// Mean time to failure from `initial` (down states absorbing), by GTH on
/// markov::renewal_chain: the transient states reachable from `initial`,
/// the absorbing states merged into one sink A, and A -> initial at rate 1.
/// Then MTTF = sum_T pi / pi_A, with no subtraction anywhere; the episode
/// verifies pi on the renewal chain before the ratio is taken. Returns 0 for
/// chains without down states and when `initial` is absorbing. `trace`
/// (optional) receives the episode. Throws std::out_of_range when
/// `initial` is not a state of `chain`, and SolveError(kInvalidInput) when
/// failure is not certain from `initial` (infinite MTTF).
double mttf_resilient(const markov::Ctmc& chain, markov::StateIndex initial,
                      const ResilienceConfig& config = {},
                      SolveTrace* trace = nullptr);

}  // namespace rascad::resilience

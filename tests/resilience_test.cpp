// Solver resilience layer: GTH correctness against closed forms, health
// checks, the single-solve episode (budgets, stop tokens, the causes of a
// failed solve) and the DTMC / SMP / MTTF wrappers.
#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "markov/absorbing.hpp"
#include "markov/dtmc.hpp"
#include "markov/steady_state.hpp"
#include "mg/generator.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/health.hpp"
#include "resilience/resilience.hpp"
#include "semimarkov/smp.hpp"

namespace {

using rascad::linalg::Vector;
using rascad::markov::Ctmc;
using rascad::markov::CtmcBuilder;
using rascad::markov::gth_stationary;
using namespace rascad::resilience;

/// Two-state up/down availability chain: pi = (mu, lambda) / (lambda + mu).
Ctmc up_down_chain(double lambda, double mu) {
  CtmcBuilder b;
  const auto up = b.add_state("up", 1.0);
  const auto down = b.add_state("down", 0.0);
  b.add_transition(up, down, lambda);
  b.add_transition(down, up, mu);
  return b.build();
}

/// Irreducible 3-state repair chain with a known nontrivial stationary
/// distribution.
Ctmc repair_chain() {
  CtmcBuilder b;
  const auto ok = b.add_state("ok", 1.0);
  const auto deg = b.add_state("degraded", 1.0);
  const auto down = b.add_state("down", 0.0);
  b.add_transition(ok, deg, 2.0);
  b.add_transition(deg, ok, 5.0);
  b.add_transition(deg, down, 1.0);
  b.add_transition(down, ok, 10.0);
  return b.build();
}

/// Two disconnected 2-cycles: no unique stationary distribution.
Ctmc disconnected_chain() {
  CtmcBuilder b;
  const auto a0 = b.add_state("a0", 1.0);
  const auto a1 = b.add_state("a1", 0.0);
  const auto b0 = b.add_state("b0", 1.0);
  const auto b1 = b.add_state("b1", 0.0);
  b.add_transition(a0, a1, 1.0);
  b.add_transition(a1, a0, 2.0);
  b.add_transition(b0, b1, 3.0);
  b.add_transition(b1, b0, 4.0);
  return b.build();
}

/// Chain with an absorbing state (no exit from "dead").
Ctmc absorbing_chain() {
  CtmcBuilder b;
  const auto up = b.add_state("up", 1.0);
  b.add_state("dead", 0.0);
  b.add_transition(up, 1, 1.0);
  return b.build();
}

double max_rel_err(const Vector& got, const Vector& want) {
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    worst = std::max(worst, std::abs(got[i] - want[i]) /
                                std::max(std::abs(want[i]), 1e-300));
  }
  return worst;
}

// ---------------------------------------------------------------- GTH ----

TEST(Gth, MatchesAnalyticTwoState) {
  const Vector pi = gth_stationary(up_down_chain(1.0, 9.0).generator());
  ASSERT_EQ(pi.size(), 2u);
  EXPECT_NEAR(pi[0], 0.9, 1e-14);
  EXPECT_NEAR(pi[1], 0.1, 1e-14);
}

TEST(Gth, MatchesBalanceEquationsOnRepairChain) {
  // Balance: 10 pi(down) = pi(degraded), 2 pi(ok) = 6 pi(degraded).
  const Vector pi = gth_stationary(repair_chain().generator());
  EXPECT_LT(max_rel_err(pi, {3.0 / 4.1, 1.0 / 4.1, 0.1 / 4.1}), 1e-14);
}

TEST(Gth, DtmcStationaryMatchesBalanceEquations) {
  // pi(b) = 0.7 pi(a), pi(c) = 0.3 pi(a) + 0.6 pi(b) = 0.72 pi(a).
  rascad::markov::DtmcBuilder b;
  b.add_state("a");
  b.add_state("b");
  b.add_state("c");
  b.add_transition(0, 1, 0.7);
  b.add_transition(0, 2, 0.3);
  b.add_transition(1, 0, 0.4);
  b.add_transition(1, 2, 0.6);
  b.add_transition(2, 0, 1.0);
  const Vector want{1.0 / 2.42, 0.7 / 2.42, 0.72 / 2.42};
  EXPECT_LT(max_rel_err(b.build().stationary(), want), 1e-14);
}

TEST(Gth, ReducibleChainThrowsInvalidInput) {
  for (const Ctmc& chain : {absorbing_chain(), disconnected_chain()}) {
    try {
      gth_stationary(chain.generator());
      FAIL() << "expected SolveError";
    } catch (const SolveError& e) {
      EXPECT_EQ(e.cause(), SolveCause::kInvalidInput);
    }
  }
}

/// Stationary vector of a birth-death chain from detailed balance,
/// pi(i+1) = pi(i) * birth(i) / death(i), accumulated in long double.
Vector detailed_balance(const std::vector<long double>& ratio) {
  std::vector<long double> raw(ratio.size() + 1, 1.0L);
  long double mass = 1.0L;
  for (std::size_t i = 0; i < ratio.size(); ++i) {
    raw[i + 1] = raw[i] * ratio[i];
    mass += raw[i + 1];
  }
  Vector pi(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    pi[i] = static_cast<double>(raw[i] / mass);
  }
  return pi;
}

// Componentwise-accurate on a stiff birth-death chain whose stationary
// masses span `spread` orders of magnitude.
TEST(Gth, ComponentwiseAccurateOnIllConditionedChain) {
  const double spread = 1e6;
  const Ctmc chain = ill_conditioned_chain(3, spread);
  std::vector<long double> ratio(chain.size() - 1);
  for (std::size_t i = 0; i < ratio.size(); ++i) {
    ratio[i] = (i % 2 == 0) ? spread : 1.0L / spread;
  }
  EXPECT_LT(max_rel_err(gth_stationary(chain.generator()),
                        detailed_balance(ratio)),
            1e-14);
}

// Birth-death availability chain i -> i+1 at rho, i+1 -> i at 1, the last
// state down: pi(i) is proportional to rho^i, so the unavailability
// pi(n-1) is as small as rho^(n-1). Both the markov solver and the
// production entry point must get every state, the down state included, to
// full relative precision.
TEST(SteadyState, ComponentwiseAccurateOnBirthDeathChain) {
  constexpr std::size_t kStates = 20;
  for (const double rho : {1e-3, 0.1}) {
    CtmcBuilder b;
    for (std::size_t i = 0; i < kStates; ++i) {
      b.add_state("s" + std::to_string(i), i + 1 < kStates ? 1.0 : 0.0);
    }
    for (std::size_t i = 0; i + 1 < kStates; ++i) {
      b.add_transition(i, i + 1, rho);
      b.add_transition(i + 1, i, 1.0);
    }
    const Ctmc chain = b.build();
    const Vector exact =
        detailed_balance(std::vector<long double>(kStates - 1, rho));
    EXPECT_LT(max_rel_err(rascad::markov::solve_steady_state(chain).pi,
                          exact),
              1e-14)
        << "rho " << rho;
    const Vector pi = solve_steady_state_resilient(chain).result.pi;
    EXPECT_LT(max_rel_err(pi, exact), 1e-14) << "rho " << rho;
    EXPECT_GT(pi.back(), 0.0) << "rho " << rho;
  }
}

// ------------------------------------------------------- health checks ----

TEST(Health, AllFinite) {
  EXPECT_TRUE(all_finite(Vector{0.5, 0.5}));
  EXPECT_FALSE(all_finite(Vector{0.5, std::nan("")}));
  EXPECT_FALSE(all_finite(Vector{0.5, HUGE_VAL}));
}

TEST(Health, ClampsRoundoffNegativesAndRenormalizes) {
  Vector pi{0.6, 0.4 + 1e-12, -1e-12};
  const HealthReport r = check_distribution(pi, HealthCheckConfig{});
  EXPECT_TRUE(r.ok);
  EXPECT_NEAR(r.clamped_mass, 1e-12, 1e-15);
  EXPECT_DOUBLE_EQ(pi[2], 0.0);
  EXPECT_NEAR(pi[0] + pi[1] + pi[2], 1.0, 1e-14);
}

TEST(Health, RejectsLargeNegativeMass) {
  Vector pi{0.9, 0.6, -0.5};
  const HealthReport r = check_distribution(pi, HealthCheckConfig{});
  EXPECT_FALSE(r.ok);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(*r.failure, SolveCause::kNanOrInf);
}

TEST(Health, RejectsNan) {
  Vector pi{0.5, std::nan("")};
  const HealthReport r = check_distribution(pi, HealthCheckConfig{});
  EXPECT_FALSE(r.ok);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(*r.failure, SolveCause::kNanOrInf);
}

TEST(Health, ResidualRecheckCatchesWrongDistribution) {
  const Ctmc chain = up_down_chain(1.0, 9.0);
  Vector wrong{0.5, 0.5};  // valid distribution, not stationary
  const HealthReport r =
      check_stationary(chain.generator(), wrong, HealthCheckConfig{}, 1e-13);
  EXPECT_FALSE(r.ok);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(*r.failure, SolveCause::kNonConverged);
  EXPECT_GT(r.residual_inf, 0.1);
}

TEST(Health, ResidualRecheckAcceptsTrueStationary) {
  const Ctmc chain = up_down_chain(1.0, 9.0);
  Vector pi{0.9, 0.1};
  const HealthReport r =
      check_stationary(chain.generator(), pi, HealthCheckConfig{}, 1e-13);
  EXPECT_TRUE(r.ok) << r.detail;
}

// ------------------------------------------------------- single solve ----

TEST(Solve, HealthyPathIsSingleGthAttempt) {
  const Ctmc chain = repair_chain();
  const ResilientResult r = solve_steady_state_resilient(chain);
  EXPECT_TRUE(r.trace.success);
  ASSERT_EQ(r.trace.attempts.size(), 1u);
  EXPECT_EQ(r.trace.escalations(), 0u);
  EXPECT_EQ(r.trace.total_iterations(), chain.size() - 1);
  EXPECT_EQ(r.result.residual, r.trace.attempts[0].residual_check);
  EXPECT_LT(max_rel_err(r.result.pi, {3.0 / 4.1, 1.0 / 4.1, 0.1 / 4.1}),
            1e-14);
  EXPECT_NE(r.trace.summary().find("gth ok"), std::string::npos);
}

TEST(Solve, ReducibleChainIsInvalidInput) {
  // No unique stationary distribution: GTH finds a state without outflow
  // to the states not yet eliminated. The error embeds the episode.
  for (const Ctmc& chain : {absorbing_chain(), disconnected_chain()}) {
    try {
      solve_steady_state_resilient(chain);
      FAIL() << "expected SolveError";
    } catch (const SolveError& e) {
      EXPECT_EQ(e.cause(), SolveCause::kInvalidInput);
      EXPECT_NE(std::string(e.what()).find("gth failed (invalid-input)"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Solve, StateBudgetIsBudgetExceeded) {
  ResilienceConfig config;
  config.max_states = 2;
  try {
    solve_steady_state_resilient(repair_chain(), config);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kBudgetExceeded);
  }
}

TEST(Solve, StoppedTokenIsCancelledOrDeadlineExceeded) {
  ResilienceConfig cancelled;
  cancelled.base.cancel = rascad::robust::CancelToken::manual();
  cancelled.base.cancel.request_cancel();
  ResilienceConfig expired;
  expired.base.cancel = rascad::robust::CancelToken::with_deadline_ms(1e-9);
  for (const auto& [config, cause] :
       {std::pair{cancelled, SolveCause::kCancelled},
        std::pair{expired, SolveCause::kDeadlineExceeded}}) {
    try {
      solve_steady_state_resilient(repair_chain(), config);
      FAIL() << "expected SolveError";
    } catch (const SolveError& e) {
      EXPECT_EQ(e.cause(), cause);
      EXPECT_EQ(e.iterations(), 0u);  // stopped before the first elimination
    }
    EXPECT_TRUE(config.base.cancel.observed());
  }
}

TEST(Solve, SingleStateChainTrivialEpisode) {
  CtmcBuilder b;
  b.add_state("only", 1.0);
  const ResilientResult r = solve_steady_state_resilient(b.build());
  EXPECT_TRUE(r.trace.success);
  ASSERT_EQ(r.result.pi.size(), 1u);
  EXPECT_DOUBLE_EQ(r.result.pi[0], 1.0);
}

// ------------------------------------------------------ other wrappers ----

TEST(Wrappers, DtmcStationaryResilient) {
  rascad::markov::DtmcBuilder b;
  b.add_state("a");
  b.add_state("b");
  b.add_transition(0, 1, 1.0);
  b.add_transition(1, 0, 0.5);
  b.add_transition(1, 1, 0.5);
  const ResilientResult r = stationary_resilient(b.build());
  EXPECT_TRUE(r.trace.success);
  // pi(a) = 0.5 pi(b).
  EXPECT_LT(max_rel_err(r.result.pi, {1.0 / 3.0, 2.0 / 3.0}), 1e-14);
}

TEST(Wrappers, SmpSteadyStateResilient) {
  rascad::semimarkov::SmpBuilder b;
  b.add_state("up", 1.0);
  b.add_state("down", 0.0);
  b.set_exponential(0, {{1, 1.0}});
  b.set_exponential(1, {{0, 9.0}});
  const rascad::semimarkov::SemiMarkovProcess smp = b.build();
  const ResilientResult r = smp_steady_state_resilient(smp);
  EXPECT_TRUE(r.trace.success);
  EXPECT_NEAR(r.result.pi[0], smp.steady_state_reward(), 1e-12);
  EXPECT_NEAR(r.result.pi[0] + r.result.pi[1], 1.0, 1e-12);
}

TEST(Wrappers, MttfResilientMatchesAnalytic) {
  // Up -> down at rate lambda: MTTF = 1 / lambda from "up".
  const double lambda = 0.25;
  const Ctmc chain = up_down_chain(lambda, 100.0);
  SolveTrace trace;
  const double mttf = mttf_resilient(chain, 0, ResilienceConfig{}, &trace);
  EXPECT_TRUE(trace.success);
  EXPECT_NE(trace.summary().find("gth ok [1 attempt, "), std::string::npos);
  EXPECT_NEAR(mttf, 1.0 / lambda, 1e-14 / lambda);
}

TEST(Wrappers, MttfResilientMatchesSharedFirstPassage) {
  // From "ok": t_ok = 1/2 + t_deg and t_deg = 1/6 + (5/6) t_ok, so
  // MTTF = 4. The episode wraps the same renewal-chain GTH as
  // markov::mean_time_to_absorption; only its health check's
  // renormalization of pi separates the two.
  const Ctmc chain = repair_chain();
  const double shared = rascad::markov::mean_time_to_absorption(
      rascad::markov::make_down_states_absorbing(chain).generator(), 0);
  EXPECT_NEAR(shared, 4.0, 4e-15);
  EXPECT_NEAR(mttf_resilient(chain, 0), shared, 2e-15 * shared);
}

// Transparent 1-of-N blocks (Type 1) are birth-death chains on the number
// of failed units: N - i units fail at 1/MTBF each, one deferred repair
// (MTTM + response + MTTR) at a time. Their MTTFs reach 2e31 h, where an
// absolute pivot floor or residual bound breaks an LU or iterative solve
// (an LU of (-Q_TT) called 8 of these 15 singular). Both the episode and
// the bare markov::mean_time_to_absorption are checked.
TEST(Wrappers, MttfOfRedundantBlocksMatchesBirthDeathRecurrence) {
  rascad::spec::GlobalParams globals;
  for (const unsigned n : {2u, 3u, 4u, 6u, 8u}) {
    for (const double mtbf_h : {1e4, 1e5, 1e6}) {
      rascad::spec::BlockSpec block;
      block.name = "unit";
      block.quantity = n;
      block.min_quantity = 1;
      block.mtbf_h = mtbf_h;
      block.mttr_corrective_min = 60.0;
      block.service_response_h = 4.0;
      block.recovery = rascad::spec::Transparency::kTransparent;
      block.repair = rascad::spec::Transparency::kTransparent;
      const rascad::mg::GeneratedModel model =
          rascad::mg::generate(block, globals);
      std::vector<double> birth(n);
      const std::vector<double> death(
          n, 1.0 / (globals.mttm_h + block.service_response_h + 1.0));
      for (unsigned i = 0; i < n; ++i) birth[i] = (n - i) / mtbf_h;
      const double want = rascad::baselines::birth_death_mttf(birth, death);
      const double got = mttf_resilient(model.chain, model.initial);
      EXPECT_NEAR(got, want, 1e-14 * want)
          << "N " << n << ", MTBF " << mtbf_h;
      const double shared = rascad::markov::mean_time_to_absorption(
          rascad::markov::make_down_states_absorbing(model.chain).generator(),
          model.initial);
      EXPECT_NEAR(shared, want, 1e-14 * want)
          << "N " << n << ", MTBF " << mtbf_h;
    }
  }
}

TEST(Wrappers, MttfResilientRejectsOutOfRangeInitialState) {
  // Like markov::mean_time_to_absorption, an initial state
  // outside the chain is refused before any work, also on a chain that
  // cannot fail.
  const Ctmc chain = repair_chain();
  EXPECT_THROW(mttf_resilient(chain, chain.size()), std::out_of_range);
  EXPECT_THROW(mttf_resilient(chain, 1'000'000'000), std::out_of_range);
  CtmcBuilder b;
  b.add_state("up", 1.0);
  EXPECT_THROW(mttf_resilient(b.build(), 1), std::out_of_range);
}

TEST(Wrappers, MttfZeroWhenChainCannotFail) {
  CtmcBuilder b;
  b.add_state("a", 1.0);
  b.add_state("b", 1.0);
  b.add_transition(0, 1, 1.0);
  b.add_transition(1, 0, 1.0);
  EXPECT_DOUBLE_EQ(mttf_resilient(b.build(), 0), 0.0);
}

TEST(Wrappers, MttfInvalidInputWhenFailureIsNotCertain) {
  // From "up", the chain may settle in the closed up class {a, b} and
  // never fail: the MTTF is infinite.
  CtmcBuilder b;
  const auto up = b.add_state("up", 1.0);
  const auto a = b.add_state("a", 1.0);
  const auto c = b.add_state("b", 1.0);
  const auto down = b.add_state("down", 0.0);
  b.add_transition(up, a, 1.0);
  b.add_transition(up, down, 1.0);
  b.add_transition(a, c, 1.0);
  b.add_transition(c, a, 1.0);
  b.add_transition(down, up, 1.0);
  try {
    mttf_resilient(b.build(), up);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kInvalidInput);
  }
}

}  // namespace

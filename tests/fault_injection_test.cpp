// Sick-chain harness: the generators of fault_injection.hpp build genuinely
// sick inputs, and every entry point must either return the right answer
// or fail with the right cause, recorded in its trace.
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "resilience/fault_injection.hpp"
#include "resilience/resilience.hpp"

namespace {

using rascad::linalg::Vector;
using rascad::markov::Ctmc;
using rascad::markov::CtmcBuilder;
using namespace rascad::resilience;

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

// ------------------------------------------------------ fault primitives ----

TEST(FaultPrimitives, ScaledRatesPreserveAvailability) {
  const Ctmc chain = repair_chain();
  const Ctmc scaled = with_scaled_rates(chain, 1e-3);
  const Vector a = solve_steady_state_resilient(chain).result.pi;
  const Vector b = solve_steady_state_resilient(scaled).result.pi;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-14);
  }
}

TEST(FaultPrimitives, ZeroedTransitionMakesStateAbsorbing) {
  const Ctmc chain = repair_chain();
  const Ctmc cut = with_transition_zeroed(chain, 2, 0);  // down -> ok removed
  EXPECT_DOUBLE_EQ(cut.exit_rate(2), 0.0);
  try {
    with_transition_zeroed(chain, 0, 2);  // no ok -> down arc exists
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kInvalidInput);
  }
}

// ------------------------------------------------------ sick episodes ----

TEST(SickEpisodes, ZeroedRepairArcBreaksSteadyStateButNotMttf) {
  // down -> ok removed: "down" absorbs, so neither a stationary vector nor
  // (from "down") a renewal cycle exists.
  const Ctmc cut = with_transition_zeroed(repair_chain(), 2, 0);
  SolveTrace trace;
  try {
    solve_steady_state_resilient(cut);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kInvalidInput);
  }
  // The reliability view of the same chain is healthy: MTTF from "ok" is
  // unaffected by the repair arc that was cut.
  const double want = mttf_resilient(repair_chain(), 0);
  EXPECT_NEAR(mttf_resilient(cut, 0, ResilienceConfig{}, &trace), want,
              1e-14 * want);
  EXPECT_TRUE(trace.success);
}

TEST(SickEpisodes, HealthCheckFailureFailsTheEpisodeWithItsCause) {
  // A residual bound no finite-precision vector can meet: the independent
  // check, not the elimination, rejects the answer, and the recorded
  // attempt carries its cause and residual.
  const Ctmc chain = with_scaled_rates(repair_chain(), 0.3);
  ResilienceConfig config;
  config.base.tolerance = 1e-300;
  try {
    solve_steady_state_resilient(chain, config);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kNonConverged);
    EXPECT_NE(std::string(e.what()).find("gth failed (non-converged)"),
              std::string::npos)
        << e.what();
  }
  SolveTrace trace;
  EXPECT_THROW(mttf_resilient(chain, 0, config, &trace), SolveError);
  ASSERT_EQ(trace.attempts.size(), 1u);
  EXPECT_FALSE(trace.success);
  EXPECT_EQ(trace.attempts[0].cause, SolveCause::kNonConverged);
  EXPECT_GT(trace.attempts[0].residual_check, 0.0);
}

TEST(SickEpisodes, StiffChainSolvesFirstTime) {
  // Stationary masses spanning 1e9 per link: one attempt, and the
  // residual check passes at the default tolerance.
  const ResilientResult r =
      solve_steady_state_resilient(ill_conditioned_chain(8, 1e9));
  EXPECT_TRUE(r.trace.success);
  ASSERT_EQ(r.trace.attempts.size(), 1u);
  EXPECT_EQ(r.trace.attempts[0].clamped_mass, 0.0);
  for (const double x : r.result.pi) EXPECT_GT(x, 0.0);
}

}  // namespace

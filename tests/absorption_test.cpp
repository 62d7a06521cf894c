// Tests for first-passage analysis: markov::mean_time_to_absorption (GTH
// on the renewal chain) and the DTMC and semi-Markov entry points built on
// it — the GMB engine's reliability-model counterpart.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "baselines/baselines.hpp"
#include "markov/absorbing.hpp"
#include "markov/dtmc.hpp"
#include "resilience/solve_error.hpp"
#include "robust/cancel.hpp"
#include "semimarkov/smp.hpp"

namespace {

using rascad::resilience::SolveCause;
using rascad::resilience::SolveError;

/// Runs `call` and returns the cause of the SolveError it throws.
template <typename Call>
SolveCause solve_error_cause(const Call& call) {
  try {
    call();
  } catch (const SolveError& e) {
    return e.cause();
  }
  ADD_FAILURE() << "expected SolveError";
  return SolveCause::kNonConverged;
}

TEST(RenewalChain, SinkCollectsEveryAbsorbingArcAndReturnsToStart) {
  // 0 -> 1 (2), 0 -> 3 (1), 1 -> 0 (4), 1 -> 2 (3); 2 and 3 absorbing,
  // 4 unreachable from 1.
  rascad::linalg::CsrBuilder w(5, 5);
  w.add(0, 1, 2.0);
  w.add(0, 3, 1.0);
  w.add(1, 0, 4.0);
  w.add(1, 2, 3.0);
  w.add(4, 0, 1.0);
  const rascad::markov::RenewalChain renewal =
      rascad::markov::renewal_chain(w.build(), 1);
  ASSERT_EQ(renewal.states, (std::vector<std::size_t>{0, 1}));
  const auto& q = renewal.generator;
  EXPECT_EQ(q.at(0, 1), 2.0);
  EXPECT_EQ(q.at(0, 2), 1.0);
  EXPECT_EQ(q.at(1, 0), 4.0);
  EXPECT_EQ(q.at(1, 2), 3.0);
  EXPECT_EQ(q.at(2, 1), 1.0);  // A -> start
  EXPECT_EQ(q.at(2, 0), 0.0);
  for (std::size_t r = 0; r < 3; ++r) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) row_sum += q.at(r, c);
    EXPECT_EQ(row_sum, 0.0) << r;
  }
  // From 1: t1 = 1/7 + (4/7) t0 and t0 = 1/3 + (2/3) t1, so t1 = 7/13.
  EXPECT_DOUBLE_EQ(rascad::markov::mean_time_to_absorption(w.build(), 1),
                   7.0 / 13.0);
  EXPECT_THROW(rascad::markov::renewal_chain(w.build(), 2),
               std::invalid_argument);
  EXPECT_THROW(rascad::markov::renewal_chain(w.build(), 5), std::out_of_range);
}

TEST(DtmcAbsorption, GamblersRuinStepCount) {
  // States 0..3; 3 absorbing; from i move to i+1 w.p. 1 (a pure counter):
  // expected steps from 0 = 3.
  rascad::markov::DtmcBuilder b;
  for (int i = 0; i < 4; ++i) b.add_state("s" + std::to_string(i));
  b.add_transition(0, 1, 1.0);
  b.add_transition(1, 2, 1.0);
  b.add_transition(2, 3, 1.0);
  b.add_transition(3, 3, 1.0);
  const auto chain = b.build();
  EXPECT_TRUE(chain.is_absorbing(3));
  EXPECT_FALSE(chain.is_absorbing(0));
  EXPECT_DOUBLE_EQ(chain.expected_steps_to_absorption(0), 3.0);
  EXPECT_DOUBLE_EQ(chain.expected_steps_to_absorption(2), 1.0);
  EXPECT_DOUBLE_EQ(chain.expected_steps_to_absorption(3), 0.0);
  EXPECT_THROW(chain.expected_steps_to_absorption(4), std::out_of_range);
}

TEST(DtmcAbsorption, GeometricRetries) {
  // Succeed w.p. p each step, else retry: expected steps = 1/p.
  rascad::markov::DtmcBuilder b;
  b.add_state("try");
  b.add_state("done");
  const double p = 0.2;
  b.add_transition(0, 0, 1.0 - p);
  b.add_transition(0, 1, p);
  b.add_transition(1, 1, 1.0);
  // Self-loops count as steps: GTH sees the retry as a slower exit.
  EXPECT_DOUBLE_EQ(b.build().expected_steps_to_absorption(0), 1.0 / p);
}

TEST(DtmcAbsorption, StartThatCanAvoidAbsorptionIsInvalidInput) {
  // From "start", half the mass falls into the closed class {a, b} and is
  // never absorbed: the expected step count is infinite.
  rascad::markov::DtmcBuilder b;
  const auto start = b.add_state("start");
  const auto a = b.add_state("a");
  const auto c = b.add_state("b");
  const auto done = b.add_state("done");
  b.add_transition(start, a, 0.5);
  b.add_transition(start, done, 0.5);
  b.add_transition(a, c, 1.0);
  b.add_transition(c, a, 1.0);
  b.add_transition(done, done, 1.0);
  const auto chain = b.build();
  EXPECT_EQ(
      solve_error_cause([&] { chain.expected_steps_to_absorption(start); }),
      SolveCause::kInvalidInput);
  EXPECT_EQ(solve_error_cause([&] { chain.expected_steps_to_absorption(a); }),
            SolveCause::kInvalidInput);
}

TEST(DtmcAbsorption, StoppedTokenStopsTheElimination) {
  rascad::markov::DtmcBuilder b;
  b.add_state("try");
  b.add_state("done");
  b.add_transition(0, 0, 0.5);
  b.add_transition(0, 1, 0.5);
  b.add_transition(1, 1, 1.0);
  const auto chain = b.build();
  auto cancel = rascad::robust::CancelToken::manual();
  cancel.request_cancel();
  EXPECT_EQ(solve_error_cause(
                [&] { chain.expected_steps_to_absorption(0, cancel); }),
            SolveCause::kCancelled);
  EXPECT_TRUE(cancel.observed());
}

TEST(DtmcAbsorption, NoAbsorbingThrows) {
  rascad::markov::DtmcBuilder b;
  b.add_state("a");
  b.add_state("b");
  b.add_transition(0, 1, 1.0);
  b.add_transition(1, 0, 1.0);
  EXPECT_THROW(b.build().expected_steps_to_absorption(0),
               std::invalid_argument);
}

TEST(SmpAbsorption, MatchesCtmcMttfForExponentialSojourns) {
  // 1-of-2 with repair: the SMP first passage must equal the CTMC MTTF.
  const double lambda = 0.01;
  const double mu = 0.5;
  rascad::semimarkov::SmpBuilder sb;
  const auto s0 = sb.add_state("2good", 1.0);
  const auto s1 = sb.add_state("1good", 1.0);
  const auto fail = sb.add_state("failed", 0.0);
  sb.set_exponential(s0, {{s1, 2 * lambda}});
  sb.set_exponential(s1, {{s0, mu}, {fail, lambda}});
  const auto smp = sb.build_with_absorbing();
  EXPECT_TRUE(smp.is_absorbing(fail));
  EXPECT_FALSE(smp.is_absorbing(s0));
  const double expected =
      rascad::baselines::k_of_n_mttf_with_repair(2, 1, lambda, mu, 0);
  EXPECT_NEAR(smp.mean_time_to_absorption(s0), expected, 1e-14 * expected);
  EXPECT_DOUBLE_EQ(smp.mean_time_to_absorption(fail), 0.0);
  EXPECT_THROW(smp.steady_state(), SolveError);
}

TEST(SmpAbsorption, DeterministicStagesAddUp) {
  // A pipeline of deterministic stages: MTTF is just their sum.
  rascad::semimarkov::SmpBuilder sb;
  const auto a = sb.add_state("a", 1.0, rascad::dist::deterministic(2.0));
  const auto b = sb.add_state("b", 1.0, rascad::dist::deterministic(3.5));
  const auto end = sb.add_state("end", 0.0);
  sb.add_transition(a, b, 1.0);
  sb.add_transition(b, end, 1.0);
  const auto smp = sb.build_with_absorbing();
  EXPECT_DOUBLE_EQ(smp.mean_time_to_absorption(a), 5.5);
}

TEST(SmpAbsorption, BranchingWeibullPipeline) {
  // From Start: 60% to a Weibull stage, 40% straight to absorption; the
  // first passage is h_start + 0.6 * h_stage.
  rascad::semimarkov::SmpBuilder sb;
  const auto start =
      sb.add_state("start", 1.0, rascad::dist::exponential_mean(10.0));
  const auto stage =
      sb.add_state("stage", 1.0, rascad::dist::weibull(2.0, 100.0));
  const auto done = sb.add_state("done", 0.0);
  sb.add_transition(start, stage, 0.6);
  sb.add_transition(start, done, 0.4);
  sb.add_transition(stage, done, 1.0);
  const auto smp = sb.build_with_absorbing();
  const double stage_mean = rascad::dist::weibull(2.0, 100.0)->mean();
  const double expected = 10.0 + 0.6 * stage_mean;
  EXPECT_NEAR(smp.mean_time_to_absorption(start), expected, 1e-15 * expected);
}

TEST(SmpAbsorption, StartThatCanAvoidAbsorptionIsInvalidInput) {
  // From "start": 30% to the absorbing "end", 70% into the closed
  // alternating pair {a, b}, which never reaches it.
  rascad::semimarkov::SmpBuilder sb;
  const auto start =
      sb.add_state("start", 1.0, rascad::dist::exponential_mean(2.0));
  const auto a = sb.add_state("a", 1.0, rascad::dist::deterministic(1.0));
  const auto b = sb.add_state("b", 1.0, rascad::dist::deterministic(3.0));
  const auto end = sb.add_state("end", 0.0);
  sb.add_transition(start, a, 0.7);
  sb.add_transition(start, end, 0.3);
  sb.add_transition(a, b, 1.0);
  sb.add_transition(b, a, 1.0);
  const auto smp = sb.build_with_absorbing();
  EXPECT_EQ(solve_error_cause([&] { smp.mean_time_to_absorption(start); }),
            SolveCause::kInvalidInput);
  EXPECT_DOUBLE_EQ(smp.mean_time_to_absorption(end), 0.0);
}

TEST(SmpAbsorption, StateThatIsNeverLeftIsInvalidInput) {
  // "stuck" has a sojourn and loops back to itself with probability 1: it
  // is not absorbing, and a visit to it never ends.
  rascad::semimarkov::SmpBuilder sb;
  const auto start =
      sb.add_state("start", 1.0, rascad::dist::exponential_mean(2.0));
  const auto stuck =
      sb.add_state("stuck", 1.0, rascad::dist::exponential_mean(5.0));
  const auto end = sb.add_state("end", 0.0);
  sb.add_transition(start, stuck, 0.5);
  sb.add_transition(start, end, 0.5);
  sb.add_transition(stuck, stuck, 1.0);
  const auto smp = sb.build_with_absorbing();
  EXPECT_FALSE(smp.is_absorbing(stuck));
  EXPECT_EQ(solve_error_cause([&] { smp.mean_time_to_absorption(start); }),
            SolveCause::kInvalidInput);
}

TEST(SmpAbsorption, TransientWithoutSojournRejected) {
  rascad::semimarkov::SmpBuilder sb;
  sb.add_state("a", 1.0);  // no sojourn, but has an exit: invalid
  sb.add_state("end", 0.0);
  sb.add_transition(0, 1, 1.0);
  EXPECT_THROW(sb.build_with_absorbing(), std::invalid_argument);
}

TEST(SmpAbsorption, RegularBuildHasNoAbsorbingStates) {
  rascad::semimarkov::SmpBuilder sb;
  const auto up = sb.add_state("Up", 1.0);
  const auto down = sb.add_state("Down", 0.0);
  sb.set_exponential(up, {{down, 1.0}});
  sb.set_exponential(down, {{up, 2.0}});
  const auto smp = sb.build();
  EXPECT_FALSE(smp.is_absorbing(up));
  EXPECT_FALSE(smp.is_absorbing(down));
  EXPECT_THROW(smp.mean_time_to_absorption(up), std::invalid_argument);
}

}  // namespace

// Tests for the CTMC engine: construction, the GTH steady-state solver
// (against closed forms), transient analysis by uniformization
// (against the two-state closed form and a long-double matrix exponential),
// and absorbing-chain analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/library.hpp"
#include "markov/absorbing.hpp"
#include "markov/ctmc.hpp"
#include "markov/dtmc.hpp"
#include "markov/steady_state.hpp"
#include "markov/transient.hpp"
#include "mg/generator.hpp"
#include "mg/system.hpp"
#include "resilience/solve_error.hpp"
#include "spec/parser.hpp"

namespace {

using rascad::markov::Ctmc;
using rascad::markov::CtmcBuilder;

Ctmc two_state_chain(double lambda, double mu) {
  CtmcBuilder b;
  const auto up = b.add_state("Up", 1.0);
  const auto down = b.add_state("Down", 0.0);
  b.add_transition(up, down, lambda);
  b.add_transition(down, up, mu);
  return b.build();
}

/// A 5-state repairable chain with two down states, used as a nontrivial
/// fixture (structure mimics a generated Type-3 chain).
Ctmc five_state_chain() {
  CtmcBuilder b;
  const auto ok = b.add_state("Ok", 1.0);
  const auto ar = b.add_state("AR", 0.0);
  const auto pf = b.add_state("PF", 1.0);
  const auto dn = b.add_state("Down", 0.0);
  const auto se = b.add_state("SE", 0.0);
  b.add_transition(ok, ar, 2e-4);
  b.add_transition(ar, pf, 12.0);
  b.add_transition(pf, ok, 0.02);
  b.add_transition(pf, se, 0.002);
  b.add_transition(pf, dn, 1e-4);
  b.add_transition(dn, pf, 0.25);
  b.add_transition(se, ok, 0.25);
  return b.build();
}

TEST(CtmcBuilder, RejectsBadInput) {
  CtmcBuilder b;
  const auto s0 = b.add_state("A", 1.0);
  EXPECT_THROW(b.add_state("A", 1.0), std::invalid_argument);
  EXPECT_THROW(b.add_state("B", -0.5), std::invalid_argument);
  const auto s1 = b.add_state("B", 0.0);
  EXPECT_THROW(b.add_transition(s0, s0, 1.0), std::invalid_argument);
  EXPECT_THROW(b.add_transition(s0, s1, 0.0), std::invalid_argument);
  EXPECT_THROW(b.add_transition(s0, 7, 1.0), std::out_of_range);
  EXPECT_THROW(CtmcBuilder{}.build(), std::invalid_argument);
}

TEST(Ctmc, GeneratorRowsSumToZero) {
  const Ctmc chain = five_state_chain();
  const auto sums = chain.generator().row_sums();
  for (double s : sums) EXPECT_NEAR(s, 0.0, 1e-15);
}

TEST(Ctmc, StateLookupAndClasses) {
  const Ctmc chain = five_state_chain();
  EXPECT_EQ(chain.size(), 5u);
  EXPECT_EQ(chain.transition_count(), 7u);
  ASSERT_TRUE(chain.find_state("PF").has_value());
  EXPECT_FALSE(chain.find_state("Nope").has_value());
  EXPECT_EQ(chain.up_states().size(), 2u);
  EXPECT_EQ(chain.down_states().size(), 3u);
}

TEST(Ctmc, UniformizedIsStochastic) {
  const Ctmc chain = five_state_chain();
  const auto [p, q] = chain.uniformized();
  EXPECT_GT(q, 0.0);
  const auto sums = p.row_sums();
  for (double s : sums) EXPECT_NEAR(s, 1.0, 1e-12);
  // All entries non-negative.
  for (std::size_t r = 0; r < p.rows(); ++r) {
    const auto row = p.row(r);
    for (std::size_t k = 0; k < row.size; ++k) {
      EXPECT_GE(row.values[k], 0.0);
    }
  }
}

TEST(SteadyState, TwoStateMatchesClosedForm) {
  const double lambda = 1e-3;
  const double mu = 0.5;
  const Ctmc chain = two_state_chain(lambda, mu);
  const auto result = rascad::markov::solve_steady_state(chain);
  const double expected = rascad::baselines::two_state_availability(lambda, mu);
  EXPECT_NEAR(rascad::markov::expected_reward(chain, result.pi), expected,
              1e-12);
}

TEST(SteadyState, FixtureMatchesBalanceEquations) {
  // Hand-solved balance equations of five_state_chain, relative to
  // pi(PF) = 1: Down = 1e-4 / 0.25, SE = 0.002 / 0.25,
  // Ok = (0.02 + 0.002) / 2e-4 and AR = Ok * 2e-4 / 12.
  const Ctmc chain = five_state_chain();
  const long double raw[] = {110.0L, 0.022L / 12.0L, 1.0L, 4e-4L, 0.008L};
  long double total = 0.0L;
  for (const long double x : raw) total += x;
  const auto result = rascad::markov::solve_steady_state(chain);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const double want = static_cast<double>(raw[i] / total);
    EXPECT_NEAR(result.pi[i], want, 1e-14 * want) << "state " << i;
  }
  EXPECT_LT(result.residual, 1e-14);
}

TEST(SteadyState, BirthDeathMatchesBaseline) {
  // 3 units, repair rate mu, failure rate lambda each; compare the chain
  // solution to the closed-form birth-death stationary distribution.
  const double lambda = 0.01;
  const double mu = 0.8;
  CtmcBuilder b;
  const auto s0 = b.add_state("0down", 1.0);
  const auto s1 = b.add_state("1down", 1.0);
  const auto s2 = b.add_state("2down", 0.0);
  const auto s3 = b.add_state("3down", 0.0);
  b.add_transition(s0, s1, 3 * lambda);
  b.add_transition(s1, s2, 2 * lambda);
  b.add_transition(s2, s3, 1 * lambda);
  b.add_transition(s1, s0, 1 * mu);
  b.add_transition(s2, s1, 2 * mu);
  b.add_transition(s3, s2, 3 * mu);
  const Ctmc chain = b.build();
  const auto result = rascad::markov::solve_steady_state(chain);
  const auto pi = rascad::baselines::birth_death_stationary(
      {3 * lambda, 2 * lambda, lambda}, {mu, 2 * mu, 3 * mu});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.pi[i], pi[i], 1e-12) << i;
  }
}

TEST(SteadyState, EquivalentRatesBalanceAtSteadyState) {
  const Ctmc chain = five_state_chain();
  const auto result = rascad::markov::solve_steady_state(chain);
  const double a = rascad::markov::expected_reward(chain, result.pi);
  const double efr = rascad::markov::equivalent_failure_rate(chain, result.pi);
  const double err = rascad::markov::equivalent_recovery_rate(chain, result.pi);
  // Flow balance: A * EFR == (1 - A) * ERR at steady state.
  EXPECT_NEAR(a * efr, (1.0 - a) * err, 1e-12);
  EXPECT_GT(efr, 0.0);
  EXPECT_GT(err, 0.0);
}

TEST(SteadyState, SingleStateChain) {
  CtmcBuilder b;
  b.add_state("Only", 1.0);
  const auto result = rascad::markov::solve_steady_state(b.build());
  ASSERT_EQ(result.pi.size(), 1u);
  EXPECT_DOUBLE_EQ(result.pi[0], 1.0);
}

TEST(Transient, PointAvailabilityMatchesClosedForm) {
  const double lambda = 0.05;
  const double mu = 2.0;
  const Ctmc chain = two_state_chain(lambda, mu);
  const auto pi0 = rascad::markov::point_mass(chain, 0);
  for (double t : {0.1, 1.0, 5.0, 50.0}) {
    const double got = rascad::markov::point_availability(chain, pi0, t);
    const double expected =
        rascad::baselines::two_state_point_availability(lambda, mu, t);
    EXPECT_NEAR(got, expected, 1e-10) << "t=" << t;
  }
}

TEST(Transient, IntervalAvailabilityMatchesClosedForm) {
  const double lambda = 0.05;
  const double mu = 2.0;
  const Ctmc chain = two_state_chain(lambda, mu);
  const auto pi0 = rascad::markov::point_mass(chain, 0);
  for (double t : {0.5, 5.0, 100.0}) {
    const double got = rascad::markov::interval_availability(chain, pi0, t);
    const double expected =
        rascad::baselines::two_state_interval_availability(lambda, mu, t);
    EXPECT_NEAR(got, expected, 1e-9) << "t=" << t;
  }
}

TEST(Transient, DistributionSumsToOne) {
  const Ctmc chain = five_state_chain();
  const auto pi0 = rascad::markov::point_mass(chain, 0);
  for (double t : {0.01, 1.0, 100.0, 10'000.0}) {
    const auto pit = rascad::markov::transient_distribution(chain, pi0, t);
    double sum = 0.0;
    for (double x : pit) {
      EXPECT_GE(x, -1e-12);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "t=" << t;
  }
}

TEST(Transient, LongHorizonApproachesSteadyState) {
  const Ctmc chain = five_state_chain();
  const auto pi0 = rascad::markov::point_mass(chain, 0);
  const auto steady = rascad::markov::solve_steady_state(chain);
  const auto pit =
      rascad::markov::transient_distribution(chain, pi0, 1e6);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_NEAR(pit[i], steady.pi[i], 1e-7) << i;
  }
}

TEST(Transient, RewardCurveEndpointsAndMonotoneDecay) {
  const Ctmc chain = two_state_chain(0.01, 1.0);
  const auto pi0 = rascad::markov::point_mass(chain, 0);
  const auto curve = rascad::markov::reward_curve(chain, pi0, 100.0, 50);
  ASSERT_EQ(curve.size(), 51u);
  EXPECT_DOUBLE_EQ(curve.front(), 1.0);
  // Starting from Up, A(t) decays monotonically to the steady value.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i], curve[i - 1] + 1e-12);
  }
  EXPECT_NEAR(curve.back(),
              rascad::baselines::two_state_availability(0.01, 1.0), 1e-6);
}

TEST(Transient, RejectsBadInputs) {
  const Ctmc chain = two_state_chain(0.01, 1.0);
  const auto pi0 = rascad::markov::point_mass(chain, 0);
  EXPECT_THROW(rascad::markov::transient_distribution(chain, pi0, -1.0),
               std::invalid_argument);
  EXPECT_THROW(
      rascad::markov::transient_distribution(chain, {0.5, 0.2}, 1.0),
      std::invalid_argument);
  EXPECT_THROW(rascad::markov::point_mass(chain, 9), std::out_of_range);
}

/// Row `from` of exp(Q t) in long double, by scaling and squaring on
/// E = exp(A) - I: a Taylor series on A = Q t / 2^s with ||A||_inf <= 1/4,
/// then s doublings E <- 2E + E^2 (since exp(2A) - I = (E + I)^2 - I), with
/// the identity added once at the end. Shares no code with uniformization.
std::vector<long double> expm_row(const Ctmc& chain, std::size_t from,
                                  double t) {
  using Matrix = std::vector<std::vector<long double>>;
  const std::size_t n = chain.size();
  Matrix a(n, std::vector<long double>(n, 0.0L));
  long double norm = 0.0L;
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = chain.generator().row(i);
    long double row_norm = 0.0L;
    for (std::size_t k = 0; k < row.size; ++k) {
      a[i][row.cols[k]] = static_cast<long double>(row.values[k]) * t;
      row_norm += std::abs(a[i][row.cols[k]]);
    }
    norm = std::max(norm, row_norm);
  }
  int s = 0;
  for (; norm > 0.25L; norm /= 2) ++s;
  for (auto& row : a) {
    for (long double& x : row) x = std::ldexp(x, -s);
  }
  const auto mul = [n](const Matrix& x, const Matrix& y) {
    Matrix z(n, std::vector<long double>(n, 0.0L));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t j = 0; j < n; ++j) z[i][j] += x[i][k] * y[k][j];
      }
    }
    return z;
  };
  Matrix e = a;
  Matrix term = a;
  for (int k = 2; k <= 20; ++k) {
    term = mul(term, a);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        term[i][j] /= k;
        e[i][j] += term[i][j];
      }
    }
  }
  for (int q = 0; q < s; ++q) {
    const Matrix sq = mul(e, e);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) e[i][j] = 2 * e[i][j] + sq[i][j];
    }
  }
  e[from][from] += 1.0L;
  return e[from];
}

TEST(Transient, UniformizationAgreesWithExpmOnGeneratedChain) {
  // A 6-state generated chain whose rates span 2e-6/h to 10/h; the worst
  // gap to the reference was 8.5e-14 (at t = 168 h).
  rascad::spec::BlockSpec b;
  b.name = "cpu";
  b.quantity = 2;
  b.min_quantity = 1;
  b.mtbf_h = 50'000.0;
  b.transient_fit = 2'000.0;
  b.mttr_corrective_min = 45.0;
  b.service_response_h = 4.0;
  b.recovery = rascad::spec::Transparency::kNontransparent;
  b.ar_time_min = 6.0;
  b.repair = rascad::spec::Transparency::kTransparent;
  const auto model = rascad::mg::generate(b, rascad::spec::GlobalParams{});
  ASSERT_EQ(model.chain.size(), 6u);
  const auto pi0 = rascad::markov::point_mass(model.chain, model.initial);
  for (double t : {1.0, 24.0, 168.0}) {
    const auto uni =
        rascad::markov::transient_distribution(model.chain, pi0, t);
    const auto ref = expm_row(model.chain, model.initial, t);
    for (std::size_t i = 0; i < model.chain.size(); ++i) {
      EXPECT_NEAR(uni[i], static_cast<double>(ref[i]), 1e-12)
          << "t=" << t << " state " << i;
    }
  }
}

TEST(Transient, HugeHorizonFailsFastOnTermBudget) {
  // Up1 <-> Up2 at 100/h, Up1 -> Down at 1e-6/h: the chain does not mix
  // within the window search, and q*t = 1e302 is far past the term budget,
  // so the Poisson series can never converge. It must say so (it used to
  // cast q*t into size_t, undefined behaviour, and return R = 1).
  CtmcBuilder b;
  const auto up1 = b.add_state("Up1", 1.0);
  const auto up2 = b.add_state("Up2", 1.0);
  const auto down = b.add_state("Down", 0.0);
  b.add_transition(up1, up2, 100.0);
  b.add_transition(up2, up1, 100.0);
  b.add_transition(up1, down, 1e-6);
  const Ctmc chain = b.build();
  const auto pi0 = rascad::markov::point_mass(chain, up1);
  const auto expect_budget = [](const auto& call) {
    try {
      call();
      FAIL() << "expected SolveError(kBudgetExceeded)";
    } catch (const rascad::resilience::SolveError& e) {
      EXPECT_EQ(e.cause(), rascad::resilience::SolveCause::kBudgetExceeded);
    }
  };
  expect_budget(
      [&] { return rascad::markov::reliability_at(chain, pi0, 1e300); });
  expect_budget([&] {
    return rascad::markov::transient_distribution(chain, pi0, 1e300);
  });
  expect_budget(
      [&] { return rascad::markov::accumulated_reward(chain, pi0, 1e300); });
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Transient, RewardCurveEqualsChainedDistributionSteps) {
  // reward_curve builds its uniformized operator once per curve; sample k
  // must still be bitwise the reward of k chained transient_distribution
  // steps, for every block chain (and its absorbing variant) of the
  // example web shop and the library systems.
  std::vector<rascad::spec::ModelSpec> models = {
      rascad::spec::parse_model_file(std::string(RASCAD_EXAMPLE_MODELS) +
                                     "/web_shop.rsc")};
  for (const auto& entry : rascad::core::library::all_models()) {
    models.push_back(entry.factory());
  }
  constexpr std::size_t kSteps = 256;
  std::size_t curves = 0;
  for (const auto& model : models) {
    const double horizon = model.globals.mission_time_h;
    const double h = horizon / static_cast<double>(kSteps);
    const auto system = rascad::mg::SystemModel::build(model);
    for (const auto& block : system.blocks()) {
      for (const Ctmc& chain :
           {*block.chain,
            rascad::markov::make_down_states_absorbing(*block.chain)}) {
        SCOPED_TRACE(block.diagram + "/" + block.block.name);
        const auto r = chain.reward_vector();
        auto pi = rascad::markov::point_mass(chain, block.initial);
        const auto curve =
            rascad::markov::reward_curve(chain, pi, horizon, kSteps);
        ASSERT_EQ(curve.size(), kSteps + 1);
        ASSERT_EQ(bits(curve[0]), bits(rascad::linalg::dot(r, pi)));
        for (std::size_t k = 1; k <= kSteps; ++k) {
          pi = rascad::markov::transient_distribution(chain, pi, h);
          ASSERT_EQ(bits(curve[k]), bits(rascad::linalg::dot(r, pi)))
              << "sample " << k;
        }
        ++curves;
      }
    }
  }
  EXPECT_EQ(curves, 106u);
}

TEST(Absorbing, TwoStateMttf) {
  // Down absorbing: MTTF = 1/lambda.
  const Ctmc chain = two_state_chain(0.02, 1.0);
  const Ctmc rel = rascad::markov::make_down_states_absorbing(chain);
  EXPECT_NEAR(rascad::markov::mean_time_to_absorption(rel.generator(), 0),
              50.0, 50.0 * 1e-15);
  EXPECT_EQ(rascad::markov::mean_time_to_absorption(rel.generator(), 1), 0.0);
}

TEST(Absorbing, KofNMttfMatchesBaseline) {
  // 2-of-3 system without repair.
  const double lambda = 0.001;
  CtmcBuilder b;
  const auto s0 = b.add_state("3good", 1.0);
  const auto s1 = b.add_state("2good", 1.0);
  const auto fail = b.add_state("failed", 0.0);
  b.add_transition(s0, s1, 3 * lambda);
  b.add_transition(s1, fail, 2 * lambda);
  const double expected =
      rascad::baselines::k_of_n_mttf_no_repair(3, 2, lambda);
  EXPECT_NEAR(rascad::markov::mean_time_to_absorption(b.build().generator(), 0),
              expected, expected * 1e-15);
}

TEST(Absorbing, RepairableMttfMatchesBaseline) {
  // 1-of-2 with repair: absorbing at both failed.
  const double lambda = 0.01;
  const double mu = 0.5;
  CtmcBuilder b;
  const auto s0 = b.add_state("2good", 1.0);
  const auto s1 = b.add_state("1good", 1.0);
  const auto fail = b.add_state("failed", 0.0);
  b.add_transition(s0, s1, 2 * lambda);
  b.add_transition(s1, s0, mu);
  b.add_transition(s1, fail, lambda);
  const double expected =
      rascad::baselines::k_of_n_mttf_with_repair(2, 1, lambda, mu, 0);
  EXPECT_NEAR(rascad::markov::mean_time_to_absorption(b.build().generator(), 0),
              expected, expected * 1e-14);
}

TEST(Absorbing, ReliabilityMatchesExponential) {
  const Ctmc chain = two_state_chain(0.1, 1.0);
  const Ctmc rel = rascad::markov::make_down_states_absorbing(chain);
  const auto pi0 = rascad::markov::point_mass(rel, 0);
  for (double t : {1.0, 5.0, 20.0}) {
    EXPECT_NEAR(rascad::markov::reliability_at(rel, pi0, t),
                std::exp(-0.1 * t), 1e-9)
        << t;
  }
  // Constant hazard for the exponential case.
  EXPECT_NEAR(rascad::markov::hazard_rate(rel, pi0, 5.0, 0.1), 0.1, 1e-6);
}

TEST(Absorbing, NoAbsorbingStatesThrows) {
  const Ctmc chain = two_state_chain(0.5, 1.0);
  EXPECT_THROW(rascad::markov::mean_time_to_absorption(chain.generator(), 0),
               std::invalid_argument);
  EXPECT_THROW(rascad::markov::mean_time_to_absorption(chain.generator(), 2),
               std::out_of_range);
}

TEST(Dtmc, StationaryMatchesHandComputation) {
  rascad::markov::DtmcBuilder b;
  const auto a = b.add_state("a");
  const auto c = b.add_state("b");
  b.add_transition(a, a, 0.9);
  b.add_transition(a, c, 0.1);
  b.add_transition(c, a, 0.5);
  b.add_transition(c, c, 0.5);
  const auto chain = b.build();
  const auto pi = chain.stationary();
  EXPECT_NEAR(pi[0], 5.0 / 6.0, 1e-14);
  EXPECT_NEAR(pi[1], 1.0 / 6.0, 1e-14);
}

TEST(Dtmc, BuildRejectsBadRows) {
  rascad::markov::DtmcBuilder b;
  const auto a = b.add_state("a");
  const auto c = b.add_state("b");
  b.add_transition(a, c, 0.4);  // row sums to 0.4
  b.add_transition(c, c, 1.0);
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Dtmc, Evolve) {
  rascad::markov::DtmcBuilder b;
  const auto a = b.add_state("a");
  const auto c = b.add_state("b");
  b.add_transition(a, c, 1.0);
  b.add_transition(c, a, 1.0);
  const auto chain = b.build();
  const auto v = chain.evolve({1.0, 0.0}, 3);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 1.0);
}

}  // namespace

// Sweep-helper coverage: linspace/logspace edge cases, error paths of the
// parameter sweeps, and the serial-vs-parallel determinism contract.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "core/sweep.hpp"
#include "spec/parser.hpp"

namespace {

using rascad::core::linspace;
using rascad::core::logspace;
using rascad::core::SweepPoint;
using rascad::exec::ParallelOptions;

ParallelOptions threads(std::size_t n) {
  ParallelOptions opts;
  opts.threads = n;
  return opts;
}

TEST(Linspace, TwoPointsAreExactlyTheBounds) {
  const auto v = linspace(0.25, 7.5, 2);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.front(), 0.25);
  EXPECT_EQ(v.back(), 7.5);
}

TEST(Linspace, DescendingRangeIsSupported) {
  const auto v = linspace(10.0, 2.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v.front(), 10.0);
  EXPECT_EQ(v.back(), 2.0);
  for (std::size_t i = 1; i < v.size(); ++i) EXPECT_LT(v[i], v[i - 1]);
}

TEST(Linspace, BadArgumentsThrow) {
  EXPECT_THROW(linspace(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(linspace(0.0, 1.0, 1), std::invalid_argument);
  // Non-finite bounds used to yield NaN points (lo + inf * 0).
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(linspace(1e4, inf, 3), std::invalid_argument);
  EXPECT_THROW(linspace(-inf, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(linspace(nan, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(linspace(0.0, nan, 3), std::invalid_argument);
}

TEST(Logspace, TwoPointsAreExactlyTheBounds) {
  const auto v = logspace(1e-6, 1e3, 2);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.front(), 1e-6);
  EXPECT_EQ(v.back(), 1e3);
}

TEST(Logspace, DescendingRangeIsSupported) {
  const auto v = logspace(1e4, 10.0, 4);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_DOUBLE_EQ(v.front(), 1e4);
  EXPECT_EQ(v.back(), 10.0);
  for (std::size_t i = 1; i < v.size(); ++i) EXPECT_LT(v[i], v[i - 1]);
}

TEST(Logspace, NonPositiveOrNonFiniteBoundsThrow) {
  EXPECT_THROW(logspace(0.0, 10.0, 4), std::invalid_argument);
  EXPECT_THROW(logspace(-1.0, 10.0, 4), std::invalid_argument);
  EXPECT_THROW(logspace(1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(logspace(1.0, -5.0, 4), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(logspace(1.0, inf, 4), std::invalid_argument);
  EXPECT_THROW(logspace(inf, 10.0, 4), std::invalid_argument);
  EXPECT_THROW(logspace(std::numeric_limits<double>::quiet_NaN(), 10.0, 4),
               std::invalid_argument);
}

TEST(Logspace, FewerThanTwoPointsThrows) {
  EXPECT_THROW(logspace(1.0, 10.0, 1), std::invalid_argument);
}

rascad::spec::ModelSpec sweep_test_model() {
  return rascad::spec::parse_model(R"(
globals { reboot_time = 10 min mttm = 12 h mttrfid = 4 h mission_time = 8760 h }
diagram "Sys" {
  block "A" { mtbf = 4000 mttr_corrective = 120 service_response = 4 }
  block "B" {
    quantity = 2 min_quantity = 1 mtbf = 3000
    mttr_corrective = 60 service_response = 4
    recovery = transparent repair = transparent
  }
}
)");
}

TEST(Sweep, UnknownBlockThrows) {
  const auto base = sweep_test_model();
  const auto mutate = [](rascad::spec::BlockSpec& b, double v) {
    b.mtbf_h = v;
  };
  EXPECT_THROW(rascad::core::sweep_block_parameter(base, "Sys", "NoSuchBlock",
                                                   mutate, {1.0, 2.0}),
               std::invalid_argument);
  // A known block in the wrong diagram is just as unknown.
  EXPECT_THROW(rascad::core::sweep_block_parameter(base, "NoSuchDiagram", "A",
                                                   mutate, {1.0, 2.0}),
               std::invalid_argument);
}

TEST(Sweep, NullMutatorThrows) {
  const auto base = sweep_test_model();
  EXPECT_THROW(rascad::core::sweep_block_parameter(
                   base, "Sys", "A", rascad::core::BlockMutator{}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(rascad::core::sweep_global_parameter(
                   base, rascad::core::GlobalMutator{}, {1.0}),
               std::invalid_argument);
}

TEST(Sweep, EmptyValueListYieldsEmptySeries) {
  const auto base = sweep_test_model();
  const auto points = rascad::core::sweep_block_parameter(
      base, "Sys", "A",
      [](rascad::spec::BlockSpec& b, double v) { b.mtbf_h = v; }, {});
  EXPECT_TRUE(points.empty());
}

void expect_identical_series(const std::vector<SweepPoint>& a,
                             const std::vector<SweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].value, b[i].value);
    EXPECT_EQ(a[i].availability, b[i].availability);
    EXPECT_EQ(a[i].yearly_downtime_min, b[i].yearly_downtime_min);
    EXPECT_EQ(a[i].eq_failure_rate, b[i].eq_failure_rate);
  }
}

TEST(Sweep, BlockSweepBitIdenticalAcrossThreadCounts) {
  const auto base = sweep_test_model();
  const auto values = rascad::core::logspace(1'000.0, 50'000.0, 16);
  const auto mutate = [](rascad::spec::BlockSpec& b, double v) {
    b.mtbf_h = v;
  };
  const auto serial = rascad::core::sweep_block_parameter(
      base, "Sys", "A", mutate, values, threads(1));
  ASSERT_EQ(serial.size(), values.size());
  for (std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto points = rascad::core::sweep_block_parameter(
        base, "Sys", "A", mutate, values, threads(t));
    expect_identical_series(points, serial);
  }
}

TEST(Sweep, GlobalSweepBitIdenticalAcrossThreadCounts) {
  const auto base = sweep_test_model();
  const auto values = rascad::core::linspace(0.0, 72.0, 12);
  const auto mutate = [](rascad::spec::GlobalParams& g, double v) {
    g.mttm_h = v;
  };
  const auto serial = rascad::core::sweep_global_parameter(base, mutate,
                                                           values, threads(1));
  for (std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto points = rascad::core::sweep_global_parameter(
        base, mutate, values, threads(t));
    expect_identical_series(points, serial);
  }
}

}  // namespace

// Tests for the event-engine simulator and replicate_system: P²
// quantile accuracy against exact sorted-sample quantiles, bitwise
// agreement between the event engine and a per-block reference union,
// agreement of replicate_system with a loop of simulate_system calls,
// thread-count determinism of the streaming fold, CI early exit, and
// cancellation degrading to a batch-aligned prefix.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/block_sim.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/streaming.hpp"
#include "sim/system_sim.hpp"
#include "spec/parser.hpp"

namespace {

using rascad::sim::BlockSimOptions;
using rascad::sim::P2Quantile;
using rascad::sim::SampleStats;
using rascad::sim::Interval;
using rascad::sim::StreamingOptions;
using rascad::sim::StreamingReplicationResult;
using rascad::sim::SystemSimResult;
using rascad::sim::Xoshiro256;

// ---- SampleStats empty extremes (regression) ------------------------------

TEST(Stats, EmptyMinMaxIsNaN) {
  // Regression: an empty accumulator used to report min()/max() of 0.0,
  // indistinguishable from a genuinely observed extreme of 0.
  SampleStats s;
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  s.add(-3.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), -3.0);
}

// ---- P² quantile estimator -------------------------------------------------

double exact_quantile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= xs.size()) idx = xs.size() - 1;
  return xs[idx];
}

void expect_p2_tracks(const std::vector<double>& xs, double p, double tol,
                      const char* what) {
  P2Quantile est(p);
  for (double x : xs) est.add(x);
  const double exact = exact_quantile(xs, p);
  EXPECT_NEAR(est.value(), exact, tol)
      << what << " p=" << p << ": P2 " << est.value() << " vs exact " << exact;
}

TEST(P2Quantile, EmptyIsNaNAndSmallSamplesAreExact) {
  P2Quantile est(0.5);
  EXPECT_TRUE(std::isnan(est.value()));
  est.add(5.0);
  EXPECT_DOUBLE_EQ(est.value(), 5.0);  // one sample: every quantile is it
  est.add(1.0);
  est.add(3.0);
  // Three samples {1,3,5}: nearest-rank median is the 2nd order statistic.
  EXPECT_DOUBLE_EQ(est.value(), 3.0);
  EXPECT_EQ(est.count(), 3u);

  P2Quantile p99(0.99);
  for (double x : {4.0, 2.0, 8.0, 6.0}) p99.add(x);
  EXPECT_DOUBLE_EQ(p99.value(), 8.0);  // nearest-rank on 4 samples
}

TEST(P2Quantile, RejectsDegenerateProbability) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(-0.5), std::invalid_argument);
}

TEST(P2Quantile, TracksUniform) {
  Xoshiro256 rng(101);
  std::vector<double> xs(20'000);
  for (double& x : xs) x = rng.uniform01();
  expect_p2_tracks(xs, 0.50, 0.01, "uniform");
  expect_p2_tracks(xs, 0.99, 0.01, "uniform");
  expect_p2_tracks(xs, 0.999, 0.005, "uniform");
}

TEST(P2Quantile, TracksExponential) {
  Xoshiro256 rng(202);
  std::vector<double> xs(20'000);
  for (double& x : xs) x = -std::log(rng.uniform01());
  expect_p2_tracks(xs, 0.50, 0.05, "exponential");
  expect_p2_tracks(xs, 0.99, 0.30, "exponential");
  expect_p2_tracks(xs, 0.999, 1.50, "exponential");
}

TEST(P2Quantile, TracksBimodal) {
  // Half U(0,1), half U(9,10): quantiles inside either mode must land in
  // the right mode despite the 8-wide density gap.
  Xoshiro256 rng(303);
  std::vector<double> xs(20'000);
  for (double& x : xs) {
    x = rng.uniform01() < 0.5 ? rng.uniform01() : 9.0 + rng.uniform01();
  }
  expect_p2_tracks(xs, 0.25, 0.10, "bimodal");
  expect_p2_tracks(xs, 0.90, 0.15, "bimodal");
  expect_p2_tracks(xs, 0.999, 0.05, "bimodal");
}

TEST(P2Quantile, OrderIsDeterministic) {
  // The estimator is a pure function of the sample order: same order, same
  // marker state — the property the index-ordered streaming fold relies on.
  Xoshiro256 rng(7);
  P2Quantile a(0.99);
  P2Quantile b(0.99);
  std::vector<double> xs(5'000);
  for (double& x : xs) x = rng.uniform01();
  for (double x : xs) a.add(x);
  for (double x : xs) b.add(x);
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.count(), b.count());
}

// ---- Event engine vs the per-block reference -------------------------------

rascad::spec::ModelSpec test_model() {
  return rascad::spec::parse_model(R"(
globals { reboot_time = 10 min mttm = 12 h mttrfid = 4 h mission_time = 8760 h }
diagram "Sys" {
  block "A" { mtbf = 4000 mttr_corrective = 120 service_response = 4 }
  block "B" {
    quantity = 2 min_quantity = 1 mtbf = 3000
    mttr_corrective = 60 service_response = 4
    recovery = transparent repair = transparent
  }
  block "C" {
    quantity = 2 min_quantity = 1 mtbf = 2500 transient_rate = 80000 fit
    mttr_corrective = 90 service_response = 4
    p_correct_diagnosis = 0.9 p_latent_fault = 0.1 mttdlf = 24
    recovery = nontransparent ar_time = 6 p_spf = 0.05 t_spf = 30
    repair = nontransparent reintegration_time = 10
  }
}
)");
}

/// The reference the event engine must reproduce: every failing block's
/// windows drained by simulate_block on stream (seed, position + 1), then
/// sorted by start and merged into their union. No heap, no open-window
/// sweep, no workspace reuse.
SystemSimResult reference_union(const rascad::spec::ModelSpec& model,
                                double horizon, std::uint64_t seed,
                                const BlockSimOptions& opts = {}) {
  SystemSimResult result;
  result.horizon = horizon;
  std::vector<Interval> windows;
  const auto blocks = rascad::sim::collect_failing_blocks(model);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    Xoshiro256 rng(seed, i + 1);
    const auto block = rascad::sim::simulate_block(*blocks[i], model.globals,
                                                   horizon, rng, opts);
    result.permanent_faults += block.permanent_faults;
    result.transient_faults += block.transient_faults;
    result.service_errors += block.service_errors;
    result.events += block.events;
    windows.insert(windows.end(), block.down_intervals.begin(),
                   block.down_intervals.end());
  }
  std::sort(windows.begin(), windows.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  bool open = false;
  double cur_start = 0.0;
  double cur_end = 0.0;
  for (const Interval& w : windows) {
    if (open && w.start <= cur_end) {
      cur_end = std::max(cur_end, w.end);
      continue;
    }
    if (open) {
      result.down_time += cur_end - cur_start;
      ++result.outages;
    }
    open = true;
    cur_start = w.start;
    cur_end = w.end;
  }
  if (open) {
    result.down_time += cur_end - cur_start;
    ++result.outages;
  }
  return result;
}

void expect_bitwise_equal(const SystemSimResult& a, const SystemSimResult& b,
                          std::uint64_t seed) {
  EXPECT_EQ(a.down_time, b.down_time) << "seed " << seed;
  EXPECT_EQ(a.outages, b.outages) << "seed " << seed;
  EXPECT_EQ(a.permanent_faults, b.permanent_faults) << "seed " << seed;
  EXPECT_EQ(a.transient_faults, b.transient_faults) << "seed " << seed;
  EXPECT_EQ(a.service_errors, b.service_errors) << "seed " << seed;
  EXPECT_EQ(a.events, b.events) << "seed " << seed;
  EXPECT_EQ(a.availability(), b.availability()) << "seed " << seed;
}

TEST(EventEngine, BitwiseMatchesReferenceUnionExponential) {
  const auto model = test_model();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto reference = reference_union(model, 50'000.0, seed);
    const auto event = rascad::sim::simulate_system(model, 50'000.0, seed);
    expect_bitwise_equal(reference, event, seed);
    EXPECT_GT(event.events, 0u);
    EXPECT_GT(event.outages, 0u);
  }
}

TEST(EventEngine, BitwiseMatchesReferenceUnionNonExponential) {
  const auto model = test_model();
  BlockSimOptions opts;
  opts.exponential_everything = false;
  opts.repair_cv = 0.4;
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    const auto reference = reference_union(model, 50'000.0, seed, opts);
    const auto event =
        rascad::sim::simulate_system(model, 50'000.0, seed, opts);
    expect_bitwise_equal(reference, event, seed);
  }
}

TEST(EventEngine, BitwiseMatchesReferenceUnionWithCommonCauseShocks) {
  const auto model = test_model();
  const std::vector<double> shocks{500.0, 12'000.0, 30'000.0, 44'000.0};
  BlockSimOptions opts;
  opts.common_cause_times = &shocks;
  opts.p_common_cause = 0.5;
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    const auto reference = reference_union(model, 50'000.0, seed, opts);
    const auto event =
        rascad::sim::simulate_system(model, 50'000.0, seed, opts);
    expect_bitwise_equal(reference, event, seed);
  }
}

TEST(EventEngine, TouchingWindowsMergeIntoOneOutage) {
  // Non-exponential sampling makes every reboot last exactly reboot_time
  // (0.25 h), so a shock at 100.25 h starts new windows exactly where the
  // 100 h shock's windows end. Touching windows are one system outage.
  const auto model = rascad::spec::parse_model(R"(
globals { reboot_time = 15 min mttm = 12 h mttrfid = 4 h mission_time = 8760 h }
diagram "Sys" {
  block "S1" { transient_rate = 1 fit }
  block "S2" { transient_rate = 1 fit }
}
)");
  const std::vector<double> shocks{100.0, 100.25, 300.0};
  BlockSimOptions opts;
  opts.exponential_everything = false;
  opts.common_cause_times = &shocks;
  opts.p_common_cause = 1.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto event = rascad::sim::simulate_system(model, 1'000.0, seed, opts);
    EXPECT_EQ(event.outages, 2u) << "seed " << seed;
    EXPECT_EQ(event.down_time, 0.75) << "seed " << seed;
    expect_bitwise_equal(reference_union(model, 1'000.0, seed, opts), event,
                         seed);
  }
}

TEST(EventEngine, RejectsBadHorizon) {
  const auto model = test_model();
  EXPECT_THROW(rascad::sim::simulate_system(model, 0.0, 1),
               std::invalid_argument);
}

// ---- replicate_system ------------------------------------------------------

/// Bit equality that also holds for the NaN extremes of empty statistics.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_stats(const SampleStats& a, const SampleStats& b,
                       const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_TRUE(same_bits(a.mean(), b.mean())) << what;
  EXPECT_TRUE(same_bits(a.variance(), b.variance())) << what;
  EXPECT_TRUE(same_bits(a.min(), b.min())) << what;
  EXPECT_TRUE(same_bits(a.max(), b.max())) << what;
}

/// Every statistic replicate_system folds, compared bit for bit.
void expect_same_run(const StreamingReplicationResult& a,
                     const StreamingReplicationResult& b) {
  expect_same_stats(a.availability, b.availability, "availability");
  expect_same_stats(a.downtime_minutes, b.downtime_minutes, "downtime");
  expect_same_stats(a.outages, b.outages, "outages");
  EXPECT_TRUE(
      same_bits(a.availability_p50.value(), b.availability_p50.value()));
  EXPECT_TRUE(
      same_bits(a.availability_p99.value(), b.availability_p99.value()));
  EXPECT_TRUE(
      same_bits(a.availability_p999.value(), b.availability_p999.value()));
  EXPECT_TRUE(
      same_bits(a.outage_minutes_p50.value(), b.outage_minutes_p50.value()));
  EXPECT_TRUE(
      same_bits(a.outage_minutes_p99.value(), b.outage_minutes_p99.value()));
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.completed, b.completed);
}

/// What replicate_system must fold: replication r is simulate_system at seed
/// base_seed + 0x1000 * (r + 1), taken in index order.
struct LoopFold {
  SampleStats availability;
  SampleStats downtime_minutes;
  SampleStats outages;
  std::size_t windows = 0;  // merged system outages over all replications
  std::uint64_t events = 0;
};

LoopFold loop_of_simulate_system(const rascad::spec::ModelSpec& model,
                                 double horizon, std::size_t replications,
                                 std::uint64_t base_seed) {
  LoopFold fold;
  for (std::size_t r = 0; r < replications; ++r) {
    const auto one = rascad::sim::simulate_system(
        model, horizon, base_seed + 0x1000 * (r + 1));
    fold.availability.add(one.availability());
    fold.downtime_minutes.add(one.downtime_minutes());
    fold.outages.add(static_cast<double>(one.outages));
    fold.windows += one.outages;
    fold.events += one.events;
  }
  return fold;
}

TEST(StreamingSim, MatchesLoopOfSimulateSystem) {
  const auto model = test_model();
  const LoopFold loop = loop_of_simulate_system(model, 20'000.0, 50, 7);

  StreamingOptions sopts;
  sopts.batch = 7;  // deliberately misaligned with 50 to cross boundaries
  const auto run =
      rascad::sim::replicate_system(model, 20'000.0, 50, 7, sopts);

  EXPECT_EQ(run.completed, 50u);
  EXPECT_TRUE(run.complete());
  expect_same_stats(run.availability, loop.availability, "availability");
  expect_same_stats(run.downtime_minutes, loop.downtime_minutes, "downtime");
  expect_same_stats(run.outages, loop.outages, "outages");
  EXPECT_EQ(run.events, loop.events);
  EXPECT_GT(run.events, 0u);
}

TEST(StreamingSim, OutageQuantilesSeeEveryMergedWindow) {
  const auto model = test_model();
  const LoopFold loop = loop_of_simulate_system(model, 20'000.0, 40, 3);
  StreamingOptions sopts;
  sopts.batch = 16;
  const auto run =
      rascad::sim::replicate_system(model, 20'000.0, 40, 3, sopts);
  // One quantile observation per merged system outage of every
  // replication the loop ran.
  EXPECT_GT(loop.windows, 0u);
  EXPECT_EQ(run.outage_minutes_p50.count(), loop.windows);
  EXPECT_EQ(run.outage_minutes_p99.count(), loop.windows);
  EXPECT_EQ(run.events, loop.events);
}

TEST(StreamingSim, DeterministicAcrossThreadCounts) {
  const auto model = test_model();
  std::vector<StreamingReplicationResult> runs;
  for (std::size_t threads : {1u, 2u, 8u}) {
    StreamingOptions sopts;
    sopts.batch = 32;
    sopts.parallel.threads = threads;
    runs.push_back(
        rascad::sim::replicate_system(model, 20'000.0, 200, 99, sopts));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    expect_same_run(runs[0], runs[i]);
  }
}

TEST(StreamingSim, EarlyExitOnTightCi) {
  const auto model = test_model();
  StreamingOptions sopts;
  sopts.batch = 10;
  sopts.min_replications = 10;
  sopts.stop_when_ci_below = 1.0;  // any CI satisfies this immediately
  const auto r =
      rascad::sim::replicate_system(model, 20'000.0, 1'000, 5, sopts);
  EXPECT_TRUE(r.early_exit);
  EXPECT_EQ(r.completed, 10u);
  EXPECT_EQ(r.requested, 1'000u);
  EXPECT_EQ(r.status, rascad::robust::PointStatus::kOk);
  EXPECT_LE(r.ci_half_width(), 1.0);
}

TEST(StreamingSim, PreCancelledTokenCompletesNothing) {
  const auto model = test_model();
  StreamingOptions sopts;
  sopts.batch = 8;
  sopts.parallel.cancel = rascad::robust::CancelToken::manual();
  sopts.parallel.cancel.request_cancel();
  const auto r =
      rascad::sim::replicate_system(model, 20'000.0, 100, 5, sopts);
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(r.requested, 100u);
  EXPECT_FALSE(r.early_exit);
  EXPECT_EQ(r.status, rascad::robust::PointStatus::kCancelled);
  EXPECT_TRUE(std::isnan(r.availability_p50.value()));
}

TEST(StreamingSim, CancelFromAnotherThreadLeavesAStraightPrefix) {
  // The token fires from another thread at an arbitrary moment of the
  // run. Wherever it lands, replicate_system stops on a batch boundary and the
  // statistics are exactly those of a straight run over the folded prefix.
  const auto model = test_model();
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kReplications = 2'000;
  for (const int delay_us : {0, 100, 500, 2'000, 8'000, 30'000}) {
    StreamingOptions sopts;
    sopts.batch = kBatch;
    sopts.parallel.threads = 2;
    sopts.parallel.cancel = rascad::robust::CancelToken::manual();
    std::thread firer([token = sopts.parallel.cancel, delay_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      token.request_cancel();
    });
    const auto cut = rascad::sim::replicate_system(model, 20'000.0,
                                                   kReplications, 31, sopts);
    firer.join();

    SCOPED_TRACE(::testing::Message() << "delay " << delay_us
                                      << " us, completed " << cut.completed);
    EXPECT_TRUE(cut.completed % kBatch == 0 || cut.complete());
    EXPECT_EQ(cut.status, cut.complete()
                              ? rascad::robust::PointStatus::kOk
                              : rascad::robust::PointStatus::kCancelled);
    StreamingOptions straight;
    straight.batch = kBatch;
    const auto prefix = rascad::sim::replicate_system(
        model, 20'000.0, cut.completed, 31, straight);
    expect_same_run(cut, prefix);
  }
}

TEST(StreamingSim, RejectsBadHorizon) {
  const auto model = test_model();
  EXPECT_THROW(rascad::sim::replicate_system(model, -1.0, 10, 1),
               std::invalid_argument);
}

}  // namespace

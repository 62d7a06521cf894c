// Resilience-layer overhead: the health checks and trace bookkeeping every
// MG block solve pays on top of the bare GTH elimination. The target is
// < 2% on a generated chain large enough for the elimination to dominate.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "markov/steady_state.hpp"
#include "mg/generator.hpp"
#include "obs/bench_json.hpp"
#include "resilience/resilience.hpp"

namespace {

using namespace rascad;

/// A representative generated block chain (type-3: redundancy with latent
/// faults and nontransparent recovery).
markov::Ctmc block_chain() {
  spec::BlockSpec block;
  block.name = "bench";
  block.quantity = 4;
  block.min_quantity = 2;
  block.mtbf_h = 50'000.0;
  block.mttr_corrective_min = 45.0;
  block.service_response_h = 4.0;
  block.p_latent_fault = 0.05;
  block.mttdlf_h = 168.0;
  block.ar_time_min = 2.0;
  block.reintegration_min = 10.0;
  return mg::generate(block, spec::GlobalParams{}).chain;
}

/// A deep Type 4 block (N = 64, K = 1: 445 states) whose elimination fills
/// in: the size where the < 2% target applies. (On ~10-state chains the
/// absolute overhead is sub-microsecond but a larger fraction of the tiny
/// baseline.)
markov::Ctmc large_chain() {
  spec::BlockSpec b;
  b.name = "deep";
  b.quantity = 64;
  b.min_quantity = 1;
  b.mtbf_h = 100'000.0;
  b.transient_fit = 2'000.0;
  b.mttr_corrective_min = 45.0;
  b.service_response_h = 4.0;
  b.p_correct_diagnosis = 0.95;
  b.p_latent_fault = 0.05;
  b.mttdlf_h = 48.0;
  b.recovery = spec::Transparency::kNontransparent;
  b.ar_time_min = 6.0;
  b.p_spf = 0.01;
  b.t_spf_min = 30.0;
  b.repair = spec::Transparency::kNontransparent;
  b.reintegration_min = 8.0;
  return mg::generate(b, spec::GlobalParams{}).chain;
}

void BM_GthBare(benchmark::State& state) {
  const markov::Ctmc chain = block_chain();
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::gth_stationary(chain.generator()));
  }
}
BENCHMARK(BM_GthBare);

void BM_EpisodeHealthyPath(benchmark::State& state) {
  const markov::Ctmc chain = block_chain();
  const resilience::ResilienceConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        resilience::solve_steady_state_resilient(chain, config));
  }
}
BENCHMARK(BM_EpisodeHealthyPath);

void BM_GthBareLarge(benchmark::State& state) {
  const markov::Ctmc chain = large_chain();
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::gth_stationary(chain.generator()));
  }
}
BENCHMARK(BM_GthBareLarge);

void BM_EpisodeHealthyPathLarge(benchmark::State& state) {
  const markov::Ctmc chain = large_chain();
  const resilience::ResilienceConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        resilience::solve_steady_state_resilient(chain, config));
  }
}
BENCHMARK(BM_EpisodeHealthyPathLarge);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): after the google-benchmark run,
// emit the shared one-line JSON metrics summary CI greps for (the console
// reporter's table is not machine-parsed).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Direct timing of the headline comparison — bare elimination vs the
  // verified episode on the large chain where the < 2% target applies.
  using Clock = std::chrono::steady_clock;
  const markov::Ctmc chain = large_chain();
  const resilience::ResilienceConfig config;
  constexpr int kIters = 50;
  const auto t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    benchmark::DoNotOptimize(markov::gth_stationary(chain.generator()));
  }
  const auto t1 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    benchmark::DoNotOptimize(
        resilience::solve_steady_state_resilient(chain, config));
  }
  const auto t2 = Clock::now();
  const double bare_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count() / kIters;
  const double episode_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count() / kIters;
  const double overhead_pct =
      bare_ms > 0.0 ? (episode_ms - bare_ms) / bare_ms * 100.0 : 0.0;

  rascad::obs::BenchMetricsLine("resilience")
      .metric("gth_bare_ms", bare_ms)
      .metric("episode_healthy_ms", episode_ms)
      .metric("healthy_overhead_pct", overhead_pct)
      .write(std::cout);
  return 0;
}

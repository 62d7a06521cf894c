// E16 — memoized block solves: a 64-point parametric sweep of the paper's
// Data Center System. Every sweep point is a SystemModel::build; the sweep
// is run three ways:
//
//   full   no memo table: every point generates and solves all 22 chains
//   cold   one empty cache shared by the points: the 21 chains the swept
//          parameter cannot reach are solved once for the whole sweep
//   warm   the same sweep again on the now-populated cache
//
// The three series (and the same sweep at 2 and 8 threads) must be
// bit-identical — the cache trades work, never accuracy. Exits nonzero if
// any series differs bitwise or the warm sweep is not at least 3x faster
// than the full one at a single thread, so CI catches regressions in
// either the determinism contract or the speedup.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "cache/solve_cache.hpp"
#include "core/library.hpp"
#include "core/sweep.hpp"
#include "obs/bench_json.hpp"
#include "spec/ast.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using rascad::cache::SolveCache;
using rascad::core::SweepOptions;
using rascad::core::SweepPoint;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

constexpr std::size_t kPoints = 64;
/// Timed passes per sweep. One pass takes 2–10 ms, and a single pass is
/// at the mercy of the host: single-pass runs have read the warm sweep
/// slower than the cold one.
constexpr std::size_t kRepeats = 5;

double median(std::vector<double> runs) {
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

std::vector<SweepPoint> run_sweep(const rascad::spec::ModelSpec& model,
                                  SolveCache* cache, std::size_t threads) {
  SweepOptions opts;
  opts.model.cache = cache;
  // The thread count covers both loops, the points and each point's
  // blocks, so the single-thread rows are serial throughout.
  opts.parallel.threads = threads;
  opts.model.parallel.threads = threads;
  // Centerplane service response: a single-block parameter, so with a
  // cache each point re-solves exactly one of the model's 22 chains.
  return rascad::core::sweep_block_parameter(
      model, "Server Box", "Centerplane",
      [](rascad::spec::BlockSpec& b, double v) { b.service_response_h = v; },
      rascad::core::linspace(0.5, 24.0, kPoints), opts);
}

bool bitwise_equal(const std::vector<SweepPoint>& a,
                   const std::vector<SweepPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].value != b[i].value || a[i].availability != b[i].availability ||
        a[i].yearly_downtime_min != b[i].yearly_downtime_min ||
        a[i].eq_failure_rate != b[i].eq_failure_rate) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  rascad::obs::JsonOnlyGuard json(argc, argv);
  const rascad::spec::ModelSpec model =
      rascad::core::library::datacenter_system();

  std::cout << "=== E16: block-solve memoization across sweep points ===\n\n"
            << kPoints << "-point Centerplane Tresp sweep of the Data Center "
               "System, 1 thread, median of "
            << kRepeats << " passes:\n";

  // Every pass must give the first uncached series bitwise.
  SolveCache cache;
  std::vector<SweepPoint> full;
  std::vector<double> full_runs, cold_runs, warm_runs;
  bool identical = true;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    auto t0 = Clock::now();
    const auto uncached = run_sweep(model, nullptr, 1);
    full_runs.push_back(ms_since(t0));
    if (r == 0) full = uncached;

    // The first pass fills `cache`, which the counters and the thread
    // checks below read; later passes time the same sweeps on a fresh
    // table.
    SolveCache fresh;
    SolveCache& table = r == 0 ? cache : fresh;
    t0 = Clock::now();
    const auto cold = run_sweep(model, &table, 1);
    cold_runs.push_back(ms_since(t0));

    t0 = Clock::now();
    const auto warm = run_sweep(model, &table, 1);
    warm_runs.push_back(ms_since(t0));

    identical = identical && bitwise_equal(full, uncached) &&
                bitwise_equal(full, cold) && bitwise_equal(full, warm);
  }
  const double full_ms = median(full_runs);
  const double cold_ms = median(cold_runs);
  const double warm_ms = median(warm_runs);

  const double speedup_cold = cold_ms > 0.0 ? full_ms / cold_ms : 0.0;
  const double speedup_warm = warm_ms > 0.0 ? full_ms / warm_ms : 0.0;
  const auto counters = cache.block_counters();

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "  full (no cache) : " << std::setw(9) << full_ms << " ms\n";
  std::cout << "  cold cache      : " << std::setw(9) << cold_ms << " ms  ("
            << speedup_cold << "x)\n";
  std::cout << "  warm cache      : " << std::setw(9) << warm_ms << " ms  ("
            << speedup_warm << "x)\n";
  std::cout << "  block table: " << counters.hits << " hits, "
            << counters.misses << " misses, " << counters.entries
            << " entries (hit rate " << std::setprecision(3)
            << counters.hit_rate() << ")\n";
  std::cout.unsetf(std::ios::fixed);

  // The determinism contract also spans thread counts: rerun the sweep
  // (cold per count, then warm on the shared cache).
  for (std::size_t threads : {2u, 8u}) {
    SolveCache per_count;
    identical = identical &&
                bitwise_equal(full, run_sweep(model, &per_count, threads)) &&
                bitwise_equal(full, run_sweep(model, &cache, threads));
  }
  std::cout << "  series bit-identical (full/cold/warm, threads 1/2/8): "
            << (identical ? "yes" : "NO") << "\n\n";

  const bool fast_enough = speedup_warm >= 3.0;
  if (!fast_enough) {
    std::cout << "FAIL: warm-cache speedup " << speedup_warm
              << "x below the 3x floor\n";
  }
  if (!identical) {
    std::cout << "FAIL: cached series differ bitwise from the uncached one\n";
  }

  json.restore();
  rascad::obs::BenchMetricsLine("cache")
      .metric("points", kPoints)
      .metric("full_ms", full_ms)
      .metric("cold_ms", cold_ms)
      .metric("warm_ms", warm_ms)
      .metric("speedup_cold_vs_full", speedup_cold)
      .metric("speedup_warm_vs_full", speedup_warm)
      .metric("block_hits", counters.hits)
      .metric("block_misses", counters.misses)
      .metric("block_hit_rate", counters.hit_rate())
      .metric("bitwise_identical", identical)
      .write(std::cout);

  return (fast_enough && identical) ? EXIT_SUCCESS : EXIT_FAILURE;
}

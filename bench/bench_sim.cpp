// Event-engine simulator gates: million-replication throughput, flat
// streaming memory, and bitwise determinism.
//
// Sections, two of them hard gates (nonzero exit on violation):
//
//   1. Flat memory (gate + report). A counting global operator new/delete
//      tracks the live heap; its high-water mark is taken over a
//      100k-replication run and again over the 1M-replication run. The
//      difference (`heap_growth_bytes`) is what the replication count
//      itself costs in memory: it counts bytes, so host noise cannot move
//      it, and tools/check_bench.py gates it. Peak RSS is sampled after
//      both runs too: its growth must stay under 32 MB here, but it
//      moves with the allocator and the host, so it is only reported to
//      check_bench. The 1M run also reports replications/sec and
//      simulated events/sec on the failure-heavy model (gated by
//      check_bench against the history).
//
//   2. Bitwise determinism (gate). (a) simulate_system must reproduce the
//      per-block reference — simulate_block windows on the same RNG
//      streams, sorted and merged here — across several seeds, with
//      exponential and non-exponential sampling. (b) The streaming fold
//      must be bitwise identical across thread counts {1, 2, 8},
//      including the P² marker states (quantile values) and event counts.
//
//   3. CI early exit (report only): a stop_when_ci_below run shows how
//      many replications a target half-width actually needs.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "obs/bench_json.hpp"
#include "sim/block_sim.hpp"
#include "sim/rng.hpp"
#include "sim/streaming.hpp"
#include "sim/system_sim.hpp"
#include "spec/parser.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every global operator new/delete of this binary goes
// through here, so the live heap and its high-water mark are exact byte
// counts. Each block carries a max_align_t-sized header holding its size,
// for the unsized deletes. Over-aligned (align_val_t) allocations keep the
// default operators and are not counted; the simulator makes none per
// replication.
// ---------------------------------------------------------------------------

namespace heap {

constexpr std::size_t kHeader = alignof(std::max_align_t);
std::atomic<std::int64_t> live{0};
std::atomic<std::int64_t> peak{0};

void* allocate(std::size_t n) {
  void* base = std::malloc(n + kHeader);
  if (base == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(base) = n;
  const std::int64_t now =
      live.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed) +
      static_cast<std::int64_t>(n);
  std::int64_t high = peak.load(std::memory_order_relaxed);
  while (now > high &&
         !peak.compare_exchange_weak(high, now, std::memory_order_relaxed)) {
  }
  return static_cast<char*>(base) + kHeader;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeader;
  live.fetch_sub(static_cast<std::int64_t>(*static_cast<std::size_t*>(base)),
                 std::memory_order_relaxed);
  std::free(base);
}

/// Restarts the high-water mark at the current live heap.
void reset_peak() { peak.store(live.load()); }

}  // namespace heap

void* operator new(std::size_t n) { return heap::allocate(n); }
void* operator new[](std::size_t n) { return heap::allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return heap::allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return heap::allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { heap::release(p); }
void operator delete[](void* p) noexcept { heap::release(p); }
void operator delete(void* p, std::size_t) noexcept { heap::release(p); }
void operator delete[](void* p, std::size_t) noexcept { heap::release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  heap::release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  heap::release(p);
}

namespace {

using Clock = std::chrono::steady_clock;
using rascad::sim::BlockSimOptions;
using rascad::sim::Interval;
using rascad::sim::StreamingOptions;
using rascad::sim::StreamingReplicationResult;

double sec_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak RSS in MB (Linux ru_maxrss is KB). Monotone: only meaningful as
/// a high-water mark, which is exactly how the flat-memory gate uses it.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Failure-heavy reference system: one year of mission time over four
/// blocks with few-thousand-hour MTBFs, so every replication schedules a
/// realistic handful of failure/repair/logistics events.
rascad::spec::ModelSpec bench_model() {
  return rascad::spec::parse_model(R"(
globals { reboot_time = 10 min mttm = 12 h mttrfid = 4 h mission_time = 8760 h }
diagram "Node" {
  block "Board" { mtbf = 3000 mttr_corrective = 120 service_response = 4
                  p_correct_diagnosis = 0.9 transient_rate = 60000 fit }
  block "PSU" {
    quantity = 2 min_quantity = 1 mtbf = 2000
    mttr_corrective = 60 service_response = 4
    recovery = transparent repair = transparent
  }
  block "IOB" {
    quantity = 2 min_quantity = 1 mtbf = 2500 transient_rate = 80000 fit
    mttr_corrective = 90 service_response = 4
    p_correct_diagnosis = 0.9 p_latent_fault = 0.1 mttdlf = 24
    recovery = nontransparent ar_time = 6 p_spf = 0.05 t_spf = 30
    repair = nontransparent reintegration_time = 10
  }
  block "Cluster" {
    quantity = 2 min_quantity = 1 mode = primary_standby mtbf = 3500
    transient_rate = 50000 fit mttr_corrective = 90 service_response = 4
    failover_time = 4 min p_failover = 0.95 t_spf = 45 min
    repair = transparent
  }
}
)");
}

constexpr double kHorizonH = 8760.0;
constexpr std::uint64_t kSeed = 20'260'807;

/// The per-block reference simulate_system must reproduce: every failing
/// block's windows drained by simulate_block on stream (seed, position + 1),
/// sorted by start and merged into their union.
rascad::sim::SystemSimResult reference_union(
    const rascad::spec::ModelSpec& model, double horizon, std::uint64_t seed,
    const BlockSimOptions& opts = {}) {
  rascad::sim::SystemSimResult result;
  result.horizon = horizon;
  std::vector<Interval> windows;
  const auto blocks = rascad::sim::collect_failing_blocks(model);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    rascad::sim::Xoshiro256 rng(seed, i + 1);
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

bool bitwise_equal(const rascad::sim::SystemSimResult& a,
                   const rascad::sim::SystemSimResult& b) {
  return a.down_time == b.down_time && a.outages == b.outages &&
         a.permanent_faults == b.permanent_faults &&
         a.transient_faults == b.transient_faults &&
         a.service_errors == b.service_errors && a.events == b.events;
}

bool streaming_equal(const StreamingReplicationResult& a,
                     const StreamingReplicationResult& b) {
  return a.availability.mean() == b.availability.mean() &&
         a.availability.variance() == b.availability.variance() &&
         a.availability.min() == b.availability.min() &&
         a.availability.max() == b.availability.max() &&
         a.downtime_minutes.mean() == b.downtime_minutes.mean() &&
         a.outages.mean() == b.outages.mean() &&
         a.availability_p50.value() == b.availability_p50.value() &&
         a.availability_p99.value() == b.availability_p99.value() &&
         a.availability_p999.value() == b.availability_p999.value() &&
         a.outage_minutes_p50.value() == b.outage_minutes_p50.value() &&
         a.outage_minutes_p99.value() == b.outage_minutes_p99.value() &&
         a.events == b.events && a.completed == b.completed;
}

}  // namespace

int main(int argc, char** argv) {
  rascad::obs::JsonOnlyGuard json_guard(argc, argv);
  const auto model = bench_model();
  bool pass = true;

  std::cout << "== bench_sim: event-engine simulator gates ==\n\n";

  // Warm-up: fault the code paths and the thread pool in before any
  // timing, RSS or heap sample.
  {
    StreamingOptions w;
    rascad::sim::replicate_system(model, kHorizonH, 1'000, kSeed, w);
  }

  // -- 1. Flat memory across a 10x replication jump ------------------------
  StreamingOptions sopts;
  heap::reset_peak();
  rascad::sim::replicate_system(model, kHorizonH, 100'000, kSeed, sopts);
  const std::int64_t heap_peak_100k = heap::peak.load();
  const double rss_100k_mb = peak_rss_mb();

  heap::reset_peak();
  const Clock::time_point t1m = Clock::now();
  const auto r1m = rascad::sim::replicate_system(model, kHorizonH, 1'000'000,
                                                 kSeed, sopts);
  const double s1m = sec_since(t1m);
  const std::int64_t heap_peak_1m = heap::peak.load();
  const double rss_1m_mb = peak_rss_mb();
  const std::int64_t heap_growth_bytes = heap_peak_1m - heap_peak_100k;
  const double rss_growth_mb = rss_1m_mb - rss_100k_mb;

  const double streaming_rps = static_cast<double>(r1m.completed) / s1m;
  const double events_per_sec = static_cast<double>(r1m.events) / s1m;

  std::cout << "streaming 1M replications: " << std::fixed
            << std::setprecision(2) << s1m << " s  ("
            << std::setprecision(0) << streaming_rps << " reps/s, "
            << events_per_sec << " events/s)\n";
  std::cout << "live-heap high-water over 100k: " << heap_peak_100k
            << " B, over 1M: " << heap_peak_1m << " B (growth "
            << heap_growth_bytes << " B)\n";
  std::cout << std::setprecision(2) << "peak RSS after 100k: " << rss_100k_mb
            << " MB, after 1M: " << rss_1m_mb << " MB (growth "
            << rss_growth_mb << " MB)\n";
  std::cout << std::setprecision(7)
            << "availability mean=" << r1m.availability.mean()
            << " p50=" << r1m.availability_p50.value()
            << " p99=" << r1m.availability_p99.value()
            << " p999=" << r1m.availability_p999.value() << "\n";
  std::cout << std::setprecision(2)
            << "outage minutes p50=" << r1m.outage_minutes_p50.value()
            << " p99=" << r1m.outage_minutes_p99.value() << "\n\n";

  if (rss_growth_mb > 32.0) {
    std::cout << "FAIL: peak RSS grew " << rss_growth_mb
              << " MB from 100k to 1M replications (limit 32 MB)\n";
    pass = false;
  }

  // -- 2a. Event engine vs the per-block reference, bitwise -----------------
  bool reference_bitwise = true;
  for (std::uint64_t seed = kSeed; seed < kSeed + 8; ++seed) {
    const auto reference = reference_union(model, kHorizonH, seed);
    const auto event = rascad::sim::simulate_system(model, kHorizonH, seed);
    if (!bitwise_equal(reference, event)) {
      std::cout << "FAIL: engine drift at seed " << seed << " (reference down "
                << reference.down_time << " h vs event " << event.down_time
                << " h)\n";
      reference_bitwise = false;
      pass = false;
    }
  }
  {
    BlockSimOptions nonexp;
    nonexp.exponential_everything = false;
    nonexp.repair_cv = 0.35;
    const auto reference =
        reference_union(model, kHorizonH, kSeed + 99, nonexp);
    const auto event =
        rascad::sim::simulate_system(model, kHorizonH, kSeed + 99, nonexp);
    if (!bitwise_equal(reference, event)) {
      std::cout << "FAIL: engine drift under non-exponential sampling\n";
      reference_bitwise = false;
      pass = false;
    }
  }
  std::cout << "event engine vs per-block reference: "
            << (reference_bitwise ? "bitwise identical" : "DRIFT") << "\n";

  // -- 2b. Thread-count determinism of the streaming fold -------------------
  bool threads_bitwise = true;
  StreamingOptions base;
  base.batch = 1024;
  base.parallel.threads = 1;
  const auto ref =
      rascad::sim::replicate_system(model, kHorizonH, 20'000, kSeed, base);
  for (std::size_t threads : {2u, 8u}) {
    StreamingOptions t = base;
    t.parallel.threads = threads;
    const auto run =
        rascad::sim::replicate_system(model, kHorizonH, 20'000, kSeed, t);
    if (!streaming_equal(ref, run)) {
      std::cout << "FAIL: streaming statistics drift at " << threads
                << " threads\n";
      threads_bitwise = false;
      pass = false;
    }
  }
  std::cout << "streaming fold across 1/2/8 threads: "
            << (threads_bitwise ? "bitwise identical" : "DRIFT") << "\n\n";

  // -- 3. CI early exit (report) --------------------------------------------
  StreamingOptions ci;
  ci.stop_when_ci_below = 5e-5;
  const auto rci =
      rascad::sim::replicate_system(model, kHorizonH, 1'000'000, kSeed, ci);
  std::cout << "CI early exit at half-width 5e-5: " << rci.completed
            << " replications (half-width " << std::scientific
            << std::setprecision(2) << rci.ci_half_width() << ")\n";

  std::cout << "\n== bench_sim: " << (pass ? "PASS" : "FAIL") << " ==\n";

  json_guard.restore();
  rascad::obs::BenchMetricsLine line("sim");
  line.metric("replications", r1m.completed)
      .metric("streaming_sec", s1m)
      .metric("streaming_rps", streaming_rps)
      .metric("events_per_sec", events_per_sec)
      .metric("events", r1m.events)
      .metric("availability_mean", r1m.availability.mean())
      .metric("availability_p50", r1m.availability_p50.value())
      .metric("availability_p99", r1m.availability_p99.value())
      .metric("availability_p999", r1m.availability_p999.value())
      .metric("outage_min_p50", r1m.outage_minutes_p50.value())
      .metric("outage_min_p99", r1m.outage_minutes_p99.value())
      .metric("heap_peak_100k_bytes", heap_peak_100k)
      .metric("heap_peak_1m_bytes", heap_peak_1m)
      .metric("heap_growth_bytes", heap_growth_bytes)
      .metric("rss_100k_mb", rss_100k_mb)
      .metric("rss_1m_mb", rss_1m_mb)
      .metric("rss_growth_mb", rss_growth_mb)
      .metric("reference_bitwise", reference_bitwise)
      .metric("threads_bitwise", threads_bitwise)
      .metric("ci_early_exit_reps", rci.completed)
      .metric("pass", pass);
  line.write(std::cout);
  return pass ? EXIT_SUCCESS : EXIT_FAILURE;
}

// Shared measurement vocabulary of the benchmark: command-line arguments,
// the result record every workload fills, latency summaries, process
// resource probes and the correctness tally.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The seed whose corpus has a stored digest, and where it is stored
/// (relative to the repository root).
constexpr std::uint64_t kDigestSeed = 1;
constexpr const char* kDigestPath = "perfbench/digest.txt";

struct Args {
  std::string workload;
  std::uint64_t seed = kDigestSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Print the digest of the default-seed corpus instead of running.
  bool write_digest = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Failed correctness checks; a failed op counts in `failed` and makes the
/// whole run incorrect.
class Checks {
 public:
  void fail(const std::string& what);
  /// |got - want| <= rel * |want| + abs.
  bool near(double got, double want, double rel, const std::string& what,
            double abs = 0.0);
  std::uint64_t failures() const noexcept { return failures_; }
  const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }

 private:
  std::uint64_t failures_ = 0;
  std::vector<std::string> messages_;  // first few, for the log
};

/// What one workload run reports. `notes` are printed as human-readable
/// lines before the final JSON line.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

struct LatencySummary {
  std::size_t samples = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t beyond_p90 = 0;  // samples strictly above p90
};

/// Nearest-rank percentiles over the op latencies.
LatencySummary summarize_latency(std::vector<double> ms);
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Peak resident set of this process (getrusage), MiB.
double peak_rss_mb();
/// User + system CPU time consumed by this process so far, seconds.
double process_cpu_s();

/// Host speed, from a fixed calibration kernel interleaved with the ops.
///
/// On a shared host the same op runs up to ~2x slower while other tenants
/// contend for the cores, in phases that last from under a second to
/// minutes; medians within a run cannot average that out. Throughput-bound
/// code slows by about the same factor, so the kernel (a chain of sparse
/// mat-vecs on a fixed 64-state matrix, owned by the benchmark and sharing
/// no code with the program) tracks it. Each op's latency is scaled by
/// kReferenceKernelMs over the mean of the kernel samples taken right
/// before and right after it, which expresses it at the host speed where
/// the kernel takes kReferenceKernelMs.
class HostSpeed {
 public:
  HostSpeed();
  /// Runs the kernel once on each of `threads` threads at the same time and
  /// records the mean time: a multi-threaded op runs at the speed of all
  /// the cores it uses, and contention differs between cores.
  void sample(std::size_t threads = 1);
  /// Median kernel time over all samples, ms.
  double kernel_ms() const;
  /// Number of samples taken.
  std::size_t samples() const noexcept { return ms_.size(); }
  /// Multiply the latency of an op that ran over [start, end] by this to
  /// express it at reference speed: from the last sample taken at or
  /// before `start` and the first taken at or after `end`.
  double factor(Clock::time_point start, Clock::time_point end) const;
  static constexpr double kReferenceKernelMs = 4.0;

 private:
  double run_kernel() const;

  std::vector<int> row_start_;
  std::vector<int> col_;
  std::vector<double> val_;
  std::vector<Clock::time_point> at_;  // sample start times, increasing
  std::vector<double> ms_;
};

/// Op latencies with their start times.
struct OpTimes {
  std::vector<double> ms;
  std::vector<Clock::time_point> start;
  void add(Clock::time_point at, double latency_ms) {
    start.push_back(at);
    ms.push_back(latency_ms);
  }
};

/// Restricts the calling thread to the CPU it is running on.
void pin_to_current_cpu();

/// Runs `setup` kSetupReps times, sampling the host speed on `threads`
/// threads before the first and after each, and returns their wall times
/// (ms). The last repetition's state is the one the workload measures.
OpTimes time_setups(const std::function<void()>& setup, HostSpeed& speed,
                    std::size_t threads);
constexpr int kSetupReps = 5;

/// The end-to-end metrics every untraced run reports, times scaled to the
/// reference speed (raw values go to a note). ops_per_s is good_ops over
/// the summed scaled op latencies for a closed loop; for an open loop
/// (open_window_s > 0) it is good_ops over that window, unscaled, since
/// the offered rate and not the host bounds it.
void add_end_to_end(Outcome& out, const OpTimes& ops, std::uint64_t good_ops,
                    const OpTimes& setups, const HostSpeed& speed,
                    double open_window_s = 0.0);

/// Folds the tally into the outcome: any failure makes the run incorrect.
void finish_checks(Outcome& out, const Checks& checks);

}  // namespace perfbench

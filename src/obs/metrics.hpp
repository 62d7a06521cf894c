// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// latency histograms.
//
// Design constraints, in order:
//   1. Updates must be cheap enough for solver hot paths (cache lookups,
//      solve attempts, pool chunks). Counters are sharded over
//      cache-line-padded cells indexed by a per-thread slot, so concurrent
//      increments from pool workers do not bounce one line around.
//   2. Metric objects are created once and never destroyed, so hot paths
//      can resolve a name to a reference once (function-local static) and
//      update lock-free afterwards.
//   3. Reads are relaxed sums: value() is exact once writers quiesce and a
//      monotonic under-/over-estimate mid-flight — fine for telemetry,
//      documented so nobody mistakes it for a linearizable snapshot.
//
// The registry itself (name -> metric map) is mutex-protected; that lock
// is touched only on first resolution of each name and on snapshot/reset.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rascad::obs {

/// Monotonic event count, sharded to keep concurrent increments off one
/// cache line. value() is a relaxed sum (see file comment).
class Counter {
 public:
  static constexpr std::size_t kCells = 16;

  void inc(std::uint64_t delta = 1) noexcept {
    cells_[cell_index()].v.fetch_add(delta, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t acc = 0;
    for (const Cell& c : cells_) acc += c.v.load(std::memory_order_relaxed);
    return acc;
  }

  void reset() noexcept {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t cell_index() noexcept;
  Cell cells_[kCells];
};

/// Last-written instantaneous value (queue depth, entry count).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Latency histogram over fixed logarithmic millisecond buckets
/// (1-3-10 decades from 1 us to 1 s, plus overflow). Fixed buckets keep
/// observation lock-free and snapshots trivially mergeable.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 14;
  /// Upper bounds in milliseconds; the last bucket catches everything.
  static const std::array<double, kBuckets - 1>& bounds_ms() noexcept;

  void observe_ms(double ms) noexcept;

  struct Snapshot {
    std::uint64_t count = 0;
    double sum_ms = 0.0;
    std::array<std::uint64_t, kBuckets> buckets{};
    double mean_ms() const noexcept {
      return count > 0 ? sum_ms / static_cast<double>(count) : 0.0;
    }
    /// Bucket-resolution quantile estimate (q in [0,1]): linear
    /// interpolation inside the bucket where the cumulative count crosses
    /// q*count. The overflow bucket reports its lower bound. NaN when
    /// empty — there is no estimate, and 0.0 would read as "instant".
    /// Resolution is the log-bucket width — good enough for p50/p99
    /// latency gates, not for microsecond-exact comparisons.
    double quantile_ms(double q) const noexcept;
  };
  Snapshot snapshot() const noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  /// Nanoseconds so the sum stays an integer (atomic double CAS loops are
  /// slower and unnecessary at histogram precision).
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// One consistent-format dump of every registered metric, names sorted.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramSample {
    std::string name;
    Histogram::Snapshot data;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

class Registry {
 public:
  /// The process-wide registry (leaked so worker threads can update
  /// metrics during static destruction).
  static Registry& global();

  /// Find-or-create. References stay valid forever — resolve once, keep
  /// the reference, update lock-free.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Zeroes every registered metric (objects and references survive).
  void reset() noexcept;

  MetricsSnapshot snapshot() const;

  /// Aligned human-readable table of the snapshot.
  static std::string render_text(const MetricsSnapshot& snapshot);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace rascad::obs

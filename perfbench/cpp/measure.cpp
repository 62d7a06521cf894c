#include "measure.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

namespace perfbench {

void Checks::fail(const std::string& what) {
  ++failures_;
  if (messages_.size() < 8) messages_.push_back(what);
}

bool Checks::near(double got, double want, double rel,
                  const std::string& what, double abs) {
  if (std::isfinite(got) &&
      std::abs(got - want) <= rel * std::abs(want) + abs) {
    return true;
  }
  std::ostringstream os;
  os.precision(17);
  os << what << ": got " << got << ", want " << want << " (rel " << rel
     << ", abs " << abs << ")";
  fail(os.str());
  return false;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

LatencySummary summarize_latency(std::vector<double> ms) {
  LatencySummary s;
  s.samples = ms.size();
  if (ms.empty()) return s;
  s.p50_ms = median(ms);
  s.p90_ms = percentile(ms, 0.9);
  s.beyond_p90 = static_cast<std::size_t>(
      std::count_if(ms.begin(), ms.end(),
                    [&](double x) { return x > s.p90_ms; }));
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

namespace {
constexpr int kKernelStates = 64;
constexpr int kKernelSteps = 12000;
}  // namespace

HostSpeed::HostSpeed() {
  // A fixed sparse substochastic matrix, four entries per row.
  std::uint64_t lcg = 12345;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>(lcg >> 33);
  };
  row_start_.push_back(0);
  for (int i = 0; i < kKernelStates; ++i) {
    for (int k = 0; k < 4; ++k) {
      col_.push_back(next() % kKernelStates);
      val_.push_back(0.2 + 0.05 * (next() % 4));
    }
    row_start_.push_back(static_cast<int>(col_.size()));
  }
}

void HostSpeed::sample(std::size_t threads) {
  std::vector<double> ms(threads, 0.0);
  std::vector<std::thread> workers;
  for (std::size_t t = 1; t < threads; ++t) {
    workers.emplace_back([this, &ms, t] { ms[t] = run_kernel(); });
  }
  const auto at = Clock::now();
  ms[0] = run_kernel();
  for (auto& w : workers) w.join();
  at_.push_back(at);
  ms_.push_back(mean(ms));
}

double HostSpeed::kernel_ms() const { return median(ms_); }

double HostSpeed::factor(Clock::time_point start,
                         Clock::time_point end) const {
  if (ms_.empty()) return 1.0;
  // at_ holds kernel start times: a sample "at or after end" starts after
  // the op ended; one "at or before start" started before the op, and ends
  // before it too, since samples and ops never overlap on one thread.
  auto after = std::lower_bound(at_.begin(), at_.end(), end);
  if (after == at_.end()) --after;
  auto before = std::upper_bound(at_.begin(), at_.end(), start);
  if (before != at_.begin()) --before;
  const double ms = 0.5 * (ms_[before - at_.begin()] + ms_[after - at_.begin()]);
  return kReferenceKernelMs / ms;
}

double HostSpeed::run_kernel() const {
  std::vector<double> x(kKernelStates, 1.0 / kKernelStates);
  std::vector<double> y(kKernelStates, 0.0);
  std::vector<double> acc(kKernelStates, 0.0);
  const auto t0 = Clock::now();
  for (int step = 0; step < kKernelSteps; ++step) {
    for (int i = 0; i < kKernelStates; ++i) {
      double s = 0.0;
      for (int k = row_start_[i]; k < row_start_[i + 1]; ++k) {
        s += val_[k] * x[col_[k]];
      }
      y[i] = s;
    }
    for (int i = 0; i < kKernelStates; ++i) {
      acc[i] += 0.5 * y[i];
      x[i] = y[i] + 1e-3;
    }
  }
  const double ms = ms_since(t0);
  volatile double sink = acc[0];
  (void)sink;
  return ms;
}

void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

OpTimes time_setups(const std::function<void()>& setup, HostSpeed& speed,
                    std::size_t threads) {
  OpTimes times;
  speed.sample(threads);
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    setup();
    times.add(t0, ms_since(t0));
    speed.sample(threads);
  }
  return times;
}

namespace {

std::vector<double> scaled_ms(const OpTimes& ops, const HostSpeed& speed) {
  std::vector<double> out;
  for (std::size_t i = 0; i < ops.ms.size(); ++i) {
    const auto end =
        ops.start[i] + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(ops.ms[i]));
    out.push_back(ops.ms[i] * speed.factor(ops.start[i], end));
  }
  return out;
}

}  // namespace

void add_end_to_end(Outcome& out, const OpTimes& ops, std::uint64_t good_ops,
                    const OpTimes& setups, const HostSpeed& speed,
                    double open_window_s) {
  const std::vector<double> scaled = scaled_ms(ops, speed);
  double busy_s = 0.0;
  for (double ms : scaled) busy_s += ms / 1000.0;
  const LatencySummary lat = summarize_latency(scaled);
  const LatencySummary raw = summarize_latency(ops.ms);
  const double rate = static_cast<double>(good_ops);
  out.add("latency_ms_p50", lat.p50_ms, "ms");
  out.add("latency_ms_p90", lat.p90_ms, "ms");
  out.add("ops_per_s", open_window_s > 0.0 ? rate / open_window_s : rate / busy_s,
          "1/s");
  out.add("setup_s", median(scaled_ms(setups, speed)) / 1000.0, "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::ostringstream os;
  os << "latency samples=" << lat.samples << " beyond_p90=" << lat.beyond_p90
     << (lat.beyond_p90 < 10 ? " (fewer than 10: p90 under-sampled)" : "")
     << "\nhost speed: calibration kernel median " << speed.kernel_ms()
     << " ms over " << speed.samples() << " samples against "
     << HostSpeed::kReferenceKernelMs
     << " ms reference; unscaled p50 " << raw.p50_ms << " ms, p90 "
     << raw.p90_ms << " ms, setup " << median(setups.ms) / 1000.0 << " s";
  out.note(os.str());
}

void finish_checks(Outcome& out, const Checks& checks) {
  if (checks.failures() > 0) out.correct = false;
  for (const auto& m : checks.messages()) out.note("check failed: " + m);
  std::ostringstream os;
  const double rate =
      out.attempted ? static_cast<double>(out.failed) /
                          static_cast<double>(out.attempted)
                    : 0.0;
  os << "error_rate=" << rate << " (" << out.failed << " of " << out.attempted
     << " ops failed)";
  out.note(os.str());
}

}  // namespace perfbench

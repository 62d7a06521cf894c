// deep_sweep: a parametric MTBF sweep over one deep Type 4 block, steady
// state only. The dense direct solve of a chain of several hundred states
// dominates and no curve is sampled, so a solver change shows here and a
// curve-sampling change should not. It also covers generation of large
// chains, incremental rebuild and point-level exec parallelism.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "cache/solve_cache.hpp"
#include "core/sweep.hpp"
#include "exec/parallel.hpp"
#include "layers.hpp"
#include "mg/system.hpp"
#include "obs/obs.hpp"
#include "spec/parser.hpp"
#include "spec/validate.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace mg = rascad::mg;
namespace core = rascad::core;

namespace {

/// Sweep points per op.
constexpr std::size_t kPoints = 4;
/// N of one round: one value from each of eight equal strata of log N over
/// [16, 128). Log spacing keeps the mean op short (cost grows as N^3) while
/// the top stratum still reaches the 893-state chain of N = 128. Within a
/// stratum the position is a golden-ratio sequence over the rounds from a
/// seeded start, so any run of rounds covers each stratum evenly and the
/// latency percentiles do not move with the seed's draws.
constexpr unsigned kStrata = 8;
constexpr double kNMin = 16.0;
constexpr double kNMax = 128.0;

std::vector<unsigned> round_ns(std::uint64_t seed, std::uint64_t round) {
  constexpr double kGolden = 0.6180339887498949;
  Rng start(mix_seed(seed, 0xD33B));
  std::vector<unsigned> ns;
  for (unsigned j = 0; j < kStrata; ++j) {
    const double pos = std::fmod(start.uniform() +
                                     kGolden * static_cast<double>(round),
                                 1.0);
    const double u = (j + pos) / kStrata;
    ns.push_back(static_cast<unsigned>(kNMin * std::pow(kNMax / kNMin, u)));
  }
  Rng order(mix_seed(seed, round, 0xD33B));
  order.shuffle(ns);
  return ns;
}

void set_mtbf(rascad::spec::BlockSpec& b, double v) { b.mtbf_h = v; }

std::vector<double> sweep_values(const rascad::spec::ModelSpec& model) {
  const double mtbf = model.find_block(kDeepDiagram, kDeepBlock)->mtbf_h;
  return core::linspace(0.5 * mtbf, 2.0 * mtbf, kPoints);
}

/// The op: parse, then the incremental sweep with a fresh cache.
std::vector<core::SweepPoint> sweep_op(const std::string& text,
                                       rascad::cache::SolveCache& cache,
                                       std::size_t threads) {
  const rascad::spec::ModelSpec model = rascad::spec::parse_model(text);
  core::SweepOptions opts;
  opts.model.cache = &cache;
  opts.parallel.threads = threads;
  opts.model.parallel.threads = threads;
  return core::sweep_block_parameter(model, kDeepDiagram, kDeepBlock,
                                     set_mtbf, sweep_values(model), opts);
}

/// Checks one op. Each point is rebuilt in full from the op's cache (every
/// block is a hit, so this is cheap): the full build must equal the sweep
/// point bitwise, its Type 0 and lean K-of-N blocks must match their closed
/// forms and its availability the series product; availability must rise
/// with MTBF.
bool check_op(const std::string& text, unsigned n, std::uint64_t round,
              const std::vector<core::SweepPoint>& points,
              rascad::cache::SolveCache& cache, std::uint64_t seed,
              const Digest& digest, Digest* written, Checks& checks) {
  const std::uint64_t before = checks.failures();
  const std::string where = "deep N=" + std::to_string(n);
  const rascad::spec::ModelSpec model = rascad::spec::parse_model(text);
  const std::vector<double> values = sweep_values(model);
  if (points.size() != values.size()) {
    checks.fail(where + ": wrong point count");
    return false;
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    const core::SweepPoint& p = points[i];
    const std::string at = where + " point " + std::to_string(i);
    if (!p.ok() || p.value != values[i]) {
      checks.fail(at + ": not ok (" + p.status_detail + ")");
      continue;
    }
    rascad::spec::ModelSpec variant = model;
    set_mtbf(*variant.find_block(kDeepDiagram, kDeepBlock), values[i]);
    mg::SystemModel::Options opts;
    opts.cache = &cache;
    const mg::SystemModel full = mg::SystemModel::build(variant, opts);
    if (full.availability() != p.availability ||
        full.eq_failure_rate() != p.eq_failure_rate) {
      checks.fail(at + ": sweep point differs from a full build");
    }
    check_closed_forms(full, checks, at);
    check_series(full, checks, at);
    if (i > 0 && !(p.availability > points[i - 1].availability)) {
      checks.fail(at + ": availability does not rise with MTBF");
    }
    if (seed == kDigestSeed && round == 0) {
      digest_check(digest, written,
                   "deep.n" + std::to_string(n) + ".p" + std::to_string(i) +
                       ".A",
                   p.availability, checks);
    }
  }
  return checks.failures() == before;
}

/// The traced passes of one op: the production spans on a single-threaded
/// rerun, then the layer split (parse, validate, and generate + steady
/// solve of each distinct chain of the baseline and of every point).
void trace_op(const std::string& text,
              const std::vector<core::SweepPoint>& points, TraceReport& trace) {
  rascad::obs::set_enabled(true);
  {
    rascad::cache::SolveCache span_cache;
    sweep_op(text, span_cache, 1);
  }
  rascad::obs::set_enabled(false);
  trace.spans.add_drained();
  ++trace.span_ops;

  LayerTotals& t = trace.layers;
  ++t.ops;
  for (const auto& p : points) {
    t.sweep_fresh_blocks += p.fresh_blocks;
    t.sweep_reused_blocks += p.reused_blocks;
  }
  auto t0 = Clock::now();
  const rascad::spec::ModelSpec model = rascad::spec::parse_model(text);
  t.parse_ms += ms_since(t0);
  t0 = Clock::now();
  rascad::spec::validate_or_throw(model);
  t.validate_ms += ms_since(t0);
  SeenWork seen;
  std::vector<rascad::spec::ModelSpec> variants{model};
  for (double v : sweep_values(model)) {
    variants.push_back(model);
    set_mtbf(*variants.back().find_block(kDeepDiagram, kDeepBlock), v);
  }
  for (const auto& variant : variants) {
    for (const auto& b : variant.root().blocks) {
      decompose_block(b, variant.globals, seen, t);
    }
  }
}

}  // namespace

Outcome run_deep_sweep(const Args& args, const Digest& digest,
                       Digest* written) {
  Outcome out;
  Checks checks;
  const std::size_t threads = rascad::exec::default_thread_count();
  // Set-up: start the exec pool and warm it with one sweep of the largest
  // chain of the range, so the run's peak memory does not hinge on which N
  // the seed draws.
  std::uint64_t rep = 0;
  HostSpeed speed;
  const OpTimes setups = time_setups(
      [&] {
        rascad::exec::global_pool();
        rascad::cache::SolveCache cache;
        sweep_op(deep_text(static_cast<unsigned>(kNMax), ~rep++), cache,
                 threads);
      },
      speed, threads);

  OpTimes ops;                   // pooled ops
  std::vector<double> untraced;  // single-threaded ops of a traced run
  TraceReport trace;
  unsigned n_min = ~0u;
  unsigned n_max = 0;
  std::uint64_t round = 0;

  // Whole rounds until `budget_ms` has passed. Pooled ops use the default
  // exec pool, as measured; single-threaded ones are the traced run's
  // layer split.
  const auto run_rounds = [&](double budget_ms, bool pooled) {
    const auto start = Clock::now();
    do {
      for (unsigned n : round_ns(args.seed, round)) {
        n_min = std::min(n_min, n);
        n_max = std::max(n_max, n);
        const std::string text = deep_text(n, mix_seed(args.seed, round, n));
        ++out.attempted;
        try {
          rascad::cache::SolveCache cache;
          const auto t0 = Clock::now();
          const std::vector<core::SweepPoint> points =
              sweep_op(text, cache, pooled ? threads : 1);
          if (pooled) {
            ops.add(t0, ms_since(t0));
          } else {
            untraced.push_back(ms_since(t0));
          }
          if (!args.trace) speed.sample(threads);
          if (!pooled) trace_op(text, points, trace);
          if (!check_op(text, n, round, points, cache, args.seed, digest,
                        written, checks)) {
            ++out.failed;
          }
        } catch (const std::exception& e) {
          ++out.failed;
          checks.fail("deep N=" + std::to_string(n) + ": " + e.what());
        }
      }
      ++round;
    } while (ms_since(start) < budget_ms);
    return ms_since(start) / 1000.0;
  };

  const double total_ms = args.seconds * 1000.0;
  const double cpu0 = process_cpu_s();
  // A traced run spends a third of its time on the pooled op, for
  // exec.cpu_util, and the rest on the single-threaded layer split.
  const double window_s = run_rounds(args.trace ? total_ms / 3.0 : total_ms,
                                     true);
  if (args.trace) {
    trace.cpu_util = (process_cpu_s() - cpu0) /
                     (window_s * static_cast<double>(threads));
    run_rounds(total_ms * 2.0 / 3.0, false);
  }

  std::ostringstream range;
  range << "N range used: [" << n_min << ", " << n_max << "], " << kPoints
        << " sweep points per op, " << threads << " exec threads";
  out.note(range.str());
  if (args.trace) {
    trace.untraced_op_ms = mean(untraced);
    trace.n_min = n_min;
    trace.n_max = n_max;
    add_trace_metrics(out, trace);
    reconcile(out, checks, trace, /*enforce=*/false);
  } else {
    add_end_to_end(out, ops, out.attempted - out.failed, setups, speed);
  }
  finish_checks(out, checks);
  return out;
}

}  // namespace perfbench

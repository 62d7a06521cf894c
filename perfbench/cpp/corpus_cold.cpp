// corpus_cold: the unit a user pays for, one `.rsc` text turned into
// measures and a report, solved cold. Transient curve sampling dominates an
// op, so a curve-sampling change shows here; the wide diagram adds 99
// duplicate blocks per op that the op's own cache can share.
#include <cmath>
#include <optional>
#include <sstream>

#include "cache/solve_cache.hpp"
#include "core/report.hpp"
#include "layers.hpp"
#include "mg/system.hpp"
#include "obs/obs.hpp"
#include "spec/parser.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace mg = rascad::mg;

namespace {

struct ColdOp {
  std::optional<mg::SystemModel> system;
  double ia = 0.0;
  double r = 0.0;
};

/// The op. `cache` is fresh per op and outlives the returned model, which
/// keeps a pointer to it.
ColdOp cold_op(const std::string& text, rascad::cache::SolveCache& cache) {
  ColdOp op;
  mg::SystemModel::Options opts;
  opts.cache = &cache;
  opts.parallel.threads = 1;
  op.system.emplace(mg::SystemModel::build(rascad::spec::parse_model(text),
                                           opts));
  const double mission = op.system->spec().globals.mission_time_h;
  op.ia = op.system->interval_availability(mission);
  op.r = op.system->reliability(mission);
  std::ostringstream report;
  rascad::core::write_report(report, *op.system);
  if (report.tellp() <= 0) throw std::runtime_error("empty report");
  return op;
}

/// Every check of one op; false when any failed.
bool check_op(const ColdOp& op, const std::string& name, std::uint64_t round,
              std::uint64_t seed, const Digest& digest, Digest* written,
              Checks& checks) {
  const std::uint64_t before = checks.failures();
  const std::string where = name + " #" + std::to_string(round);
  check_closed_forms(*op.system, checks, where);
  check_series(*op.system, checks, where);
  if (!(op.ia > 0.0 && op.ia <= 1.0 && op.r >= 0.0 && op.r <= 1.0)) {
    checks.fail(where + ": interval availability or reliability out of range");
  }
  if (seed == kDigestSeed && round == 0) {
    digest_check(digest, written, name + ".A", op.system->availability(),
                 checks);
    digest_check(digest, written, name + ".IA", op.ia, checks);
    digest_check(digest, written, name + ".R", op.r, checks);
  }
  return checks.failures() == before;
}

/// Template visiting order of one round: every template once, shuffled.
std::vector<std::size_t> round_order(std::size_t templates,
                                     std::uint64_t seed,
                                     std::uint64_t round) {
  std::vector<std::size_t> order(templates);
  for (std::size_t i = 0; i < templates; ++i) order[i] = i;
  Rng rng(mix_seed(seed, round, 0x0DE5));
  rng.shuffle(order);
  return order;
}

}  // namespace

Outcome run_corpus_cold(const Args& args, const Digest& digest,
                        Digest* written) {
  Outcome out;
  Checks checks;
  // The op is single-threaded: keep it, and the calibration kernel that
  // scales it, on one core, so both see the same contention.
  pin_to_current_cpu();
  std::vector<Template> templates;
  // Set-up: load the templates and warm the code and allocator with one
  // web_shop op on a text no measured op uses.
  std::uint64_t rep = 0;
  HostSpeed speed;
  const OpTimes setups = time_setups(
      [&] {
        templates = load_templates();
        rascad::cache::SolveCache cache;
        cold_op(corpus_text(templates.front(), args.seed, ~rep++), cache);
      },
      speed, 1);

  OpTimes ops;
  DuplicateCount dups;
  TraceReport trace;
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  for (std::uint64_t round = 0;
       round == 0 || ms_since(start) < args.seconds * 1000.0; ++round) {
    for (std::size_t t : round_order(templates.size(), args.seed, round)) {
      const std::string& name = templates[t].name;
      const std::string text = corpus_text(templates[t], args.seed, round);
      ++out.attempted;
      try {
        rascad::cache::SolveCache cache;
        const auto t0 = Clock::now();
        const ColdOp op = cold_op(text, cache);
        ops.add(t0, ms_since(t0));
        if (!args.trace) speed.sample();
        const DuplicateCount d = count_duplicates(*op.system);
        dups.blocks += d.blocks;
        dups.duplicates += d.duplicates;
        bool ok = check_op(op, name, round, args.seed, digest, written, checks);
        if (args.trace) {
          // Production spans on a second pass of the same op.
          rascad::obs::set_enabled(true);
          {
            rascad::cache::SolveCache span_cache;
            cold_op(text, span_cache);
          }
          rascad::obs::set_enabled(false);
          trace.spans.add_drained();
          ++trace.span_ops;
          // The per-layer split on a third pass.
          rascad::cache::SolveCache layer_cache;
          SeenWork seen;
          const mg::SystemModel system = decompose_solve(
              text, layer_cache, seen, /*report=*/true, trace.layers);
          if (system.availability() != op.system->availability()) {
            checks.fail(name + ": traced build differs");
            ok = false;
          }
          add_counters(trace.cache_blocks, layer_cache.block_counters());
          add_counters(trace.cache_curves, layer_cache.curve_counters());
        }
        if (!ok) ++out.failed;
      } catch (const std::exception& e) {
        ++out.failed;
        checks.fail(name + ": " + e.what());
      }
    }
  }
  const double window_s = ms_since(start) / 1000.0;

  const double dup_share = dups.blocks ? static_cast<double>(dups.duplicates) /
                                             static_cast<double>(dups.blocks)
                                       : 0.0;
  out.note("share of blocks duplicating another block of the same op: " +
           std::to_string(dup_share));
  if (args.trace) {
    trace.cpu_util = (process_cpu_s() - cpu0) / window_s;
    trace.untraced_op_ms = mean(ops.ms);
    trace.duplicate_block_share = dup_share;
    add_trace_metrics(out, trace);
    reconcile(out, checks, trace, /*enforce=*/true);
  } else {
    // ops_per_s is per second of op time: the closed loop's throughput
    // without the benchmark's own checks and calibration in between.
    add_end_to_end(out, ops, out.attempted - out.failed, setups, speed);
  }
  finish_checks(out, checks);
  return out;
}

}  // namespace perfbench

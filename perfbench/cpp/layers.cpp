#include "layers.hpp"

#include <cmath>
#include <cstring>
#include <sstream>

#include "core/report.hpp"
#include "markov/absorbing.hpp"
#include "markov/steady_state.hpp"
#include "markov/transient.hpp"
#include "mg/generator.hpp"
#include "obs/trace.hpp"
#include "resilience/resilience.hpp"
#include "spec/parser.hpp"
#include "spec/validate.hpp"

namespace perfbench {

namespace mg = rascad::mg;
namespace markov = rascad::markov;

void decompose_block(const rascad::spec::BlockSpec& block,
                     const rascad::spec::GlobalParams& globals,
                     SeenWork& seen, LayerTotals& t) {
  if (!block.has_own_failures()) return;
  if (!seen.blocks.insert(mg::chain_signature(block, globals)).second) return;
  auto t0 = Clock::now();
  const mg::GeneratedModel generated = mg::generate(block, globals);
  t.generate_ms += ms_since(t0);
  t.states += generated.chain.size();
  t.transitions += generated.chain.transition_count();
  // The configuration SystemModel derives from default Options.
  static const rascad::resilience::ResilienceConfig config =
      rascad::resilience::config_from(markov::SteadyStateOptions{});
  t0 = Clock::now();
  const rascad::resilience::ResilientResult solved =
      rascad::resilience::solve_steady_state_resilient(generated.chain,
                                                       config);
  t.steady_ms += ms_since(t0);
  t.attempts += solved.trace.attempts.size();
  t.escalations += solved.trace.escalations();
  t.steady_iterations += solved.trace.total_iterations();
}

namespace {

/// Samples the availability and reliability curves SystemModel samples
/// for one block, timing only the markov calls.
double sample_block_curves(const mg::SystemModel::BlockEntry& b,
                           double horizon, std::size_t steps,
                           LayerTotals& t) {
  double ms = 0.0;
  {
    const rascad::linalg::Vector pi0 = markov::point_mass(*b.chain, b.initial);
    const auto t0 = Clock::now();
    const rascad::linalg::Vector curve =
        markov::reward_curve(*b.chain, pi0, horizon, steps);
    ms += ms_since(t0);
    ++t.curves;
    t.uniformized_qt += b.chain->uniformized().second * horizon;
  }
  const markov::Ctmc rel = markov::make_down_states_absorbing(*b.chain);
  if (!rel.down_states().empty()) {
    const rascad::linalg::Vector pi0 = markov::point_mass(rel, b.initial);
    const auto t0 = Clock::now();
    const rascad::linalg::Vector curve =
        markov::reward_curve(rel, pi0, horizon, steps);
    ms += ms_since(t0);
    ++t.curves;
    t.uniformized_qt += rel.uniformized().second * horizon;
  }
  return ms;
}

}  // namespace

mg::SystemModel decompose_solve(const std::string& text,
                                rascad::cache::SolveCache& cache,
                                SeenWork& seen, bool report,
                                LayerTotals& t) {
  ++t.ops;
  auto t0 = Clock::now();
  rascad::spec::ModelSpec model = rascad::spec::parse_model(text);
  t.parse_ms += ms_since(t0);
  t0 = Clock::now();
  const rascad::spec::ValidationReport validation =
      rascad::spec::validate(model);
  t.validate_ms += ms_since(t0);
  if (!validation.ok()) {
    throw std::invalid_argument(validation.to_string());
  }

  mg::SystemModel::Options opts;
  opts.cache = &cache;
  opts.parallel.threads = 1;
  mg::SystemModel system = mg::SystemModel::build(model, opts);

  const rascad::spec::GlobalParams& g = system.spec().globals;
  for (const auto& b : system.blocks()) decompose_block(b.block, g, seen, t);

  const double mission = g.mission_time_h;
  double curve_ms = 0.0;
  for (const auto& b : system.blocks()) {
    if (!seen.curves.insert(b.signature).second) continue;
    curve_ms += sample_block_curves(b, mission, opts.curve_steps, t);
  }
  t.curve_ms += curve_ms;

  t0 = Clock::now();
  const double ia = system.interval_availability(mission);
  const double r = system.reliability(mission);
  t.compose_ms += ms_since(t0) - curve_ms;
  if (!(ia > 0.0 && ia <= 1.0 && r >= 0.0 && r <= 1.0)) {
    throw std::runtime_error("traced op: measure out of range");
  }

  if (report) {
    t0 = Clock::now();
    const std::string md = rascad::core::report_markdown(system);
    t.report_ms += ms_since(t0);
    if (md.empty()) throw std::runtime_error("traced op: empty report");
  }
  return system;
}

void add_counters(rascad::cache::CacheCounters& into,
                  const rascad::cache::CacheCounters& c) {
  into.hits += c.hits;
  into.misses += c.misses;
  into.insertions += c.insertions;
  into.evictions += c.evictions;
}

void SpanTotals::add_drained() {
  const rascad::obs::TraceDump dump = rascad::obs::drain_trace();
  for (const auto& s : dump.spans) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    if (std::strcmp(s.name, "spec.parse") == 0) parse_ms += ms;
    else if (std::strcmp(s.name, "mg.generate") == 0) generate_ms += ms;
    else if (std::strcmp(s.name, "block.solve") == 0) block_ms += ms;
    else if (std::strcmp(s.name, "curve.sample") == 0) curve_ms += ms;
  }
}

namespace {

double layer_sum_per_op(const LayerTotals& t) {
  return t.ops ? t.layer_sum_ms() / static_cast<double>(t.ops) : 0.0;
}

double overhead_frac(const TraceReport& r) {
  return r.untraced_op_ms > 0.0
             ? (layer_sum_per_op(r.layers) - r.untraced_op_ms) /
                   r.untraced_op_ms
             : 0.0;
}

}  // namespace

void reconcile(Outcome& out, Checks& checks, const TraceReport& r,
               bool enforce) {
  const double frac = overhead_frac(r);
  std::ostringstream os;
  os << "reconciliation: layer busy times sum to "
     << layer_sum_per_op(r.layers) << " ms per op against "
     << r.untraced_op_ms << " ms untraced; tracing overhead "
     << frac * 100.0 << "%";
  if (enforce) os << " (allowed +-" << kReconcileFrac * 100.0 << "%)";
  out.note(os.str());
  if (enforce && !(std::abs(frac) <= kReconcileFrac)) checks.fail(os.str());
}

void add_trace_metrics(Outcome& out, const TraceReport& r) {
  const LayerTotals& t = r.layers;
  const double ops = t.ops ? static_cast<double>(t.ops) : 1.0;
  const auto per_op = [&](double v) { return v / ops; };
  out.add("spec.parse_ms", per_op(t.parse_ms), "ms");
  out.add("spec.validate_ms", per_op(t.validate_ms), "ms");
  out.add("mg.generate_ms", per_op(t.generate_ms), "ms");
  out.add("mg.states", per_op(t.states), "count");
  out.add("mg.transitions", per_op(t.transitions), "count");
  out.add("resilience.steady_ms", per_op(t.steady_ms), "ms");
  out.add("resilience.attempts", per_op(t.attempts), "count");
  out.add("resilience.escalations", per_op(t.escalations), "count");
  out.add("markov.steady_iterations", per_op(t.steady_iterations), "count");
  out.add("markov.curve_ms", per_op(t.curve_ms), "ms");
  out.add("markov.curves", per_op(t.curves), "count");
  out.add("markov.uniformized_qt", per_op(t.uniformized_qt), "jumps");
  out.add("rbd.compose_ms", per_op(t.compose_ms), "ms");
  const auto lookups = [](const rascad::cache::CacheCounters& c) {
    return static_cast<double>(c.hits + c.misses);
  };
  out.add("cache.block_hit_rate", r.cache_blocks.hit_rate(), "ratio");
  out.add("cache.block_lookups", lookups(r.cache_blocks), "count");
  out.add("cache.curve_hit_rate", r.cache_curves.hit_rate(), "ratio");
  out.add("cache.curve_lookups", lookups(r.cache_curves), "count");
  out.add("cache.insertions",
          static_cast<double>(r.cache_blocks.insertions +
                              r.cache_curves.insertions),
          "count");
  out.add("cache.evictions",
          static_cast<double>(r.cache_blocks.evictions +
                              r.cache_curves.evictions),
          "count");
  out.add("core.report_ms", per_op(t.report_ms), "ms");
  out.add("core.sweep_fresh_blocks", per_op(t.sweep_fresh_blocks), "count");
  out.add("core.sweep_reused_blocks", per_op(t.sweep_reused_blocks), "count");
  out.add("exec.cpu_util", r.cpu_util, "ratio");
  out.add("serve.rejected", r.serve_rejected, "count");
  out.add("serve.inflight_peak", r.serve_inflight_peak, "count");
  out.add("loadgen.late_ms_p90", r.late_ms_p90, "ms");
  const double sum = layer_sum_per_op(t);
  out.add("trace.layer_sum_ms", sum, "ms");
  out.add("trace.untraced_op_ms", r.untraced_op_ms, "ms");
  out.add("trace.overhead_frac", overhead_frac(r), "ratio");
  const double span_ops = r.span_ops ? static_cast<double>(r.span_ops) : 1.0;
  out.add("obs.spec.parse_ms", r.spans.parse_ms / span_ops, "ms");
  out.add("obs.mg.generate_ms", r.spans.generate_ms / span_ops, "ms");
  out.add("obs.block.solve_ms", r.spans.block_ms / span_ops, "ms");
  out.add("obs.curve.sample_ms", r.spans.curve_ms / span_ops, "ms");
  out.add("share.repeat_requests", r.repeat_share, "ratio");
  out.add("share.duplicate_blocks", r.duplicate_block_share, "ratio");
  out.add("deep.n_min", r.n_min, "count");
  out.add("deep.n_max", r.n_max, "count");
}

}  // namespace perfbench

// The traced run's per-layer split. Each op is redone single-threaded with
// every public call into a layer timed from here: the program itself is
// not instrumented by this benchmark. The existing obs spans are recorded
// on a separate pass so both instruments can be compared.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "cache/signature.hpp"
#include "cache/solve_cache.hpp"
#include "measure.hpp"
#include "mg/system.hpp"

namespace perfbench {

/// Busy times and work counts summed over the traced ops.
struct LayerTotals {
  std::uint64_t ops = 0;
  double parse_ms = 0.0;
  double validate_ms = 0.0;
  double generate_ms = 0.0;
  double steady_ms = 0.0;
  double curve_ms = 0.0;
  double compose_ms = 0.0;  // interval_availability + reliability - curves
  double report_ms = 0.0;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t attempts = 0;
  std::uint64_t escalations = 0;
  std::uint64_t steady_iterations = 0;
  std::uint64_t curves = 0;
  double uniformized_qt = 0.0;  // sum of q * horizon over sampled curves
  std::uint64_t sweep_fresh_blocks = 0;
  std::uint64_t sweep_reused_blocks = 0;

  /// Sum of the layer busy times, ms.
  double layer_sum_ms() const {
    return parse_ms + validate_ms + generate_ms + steady_ms + curve_ms +
           compose_ms + report_ms;
  }
};

/// Chain signatures already generated / solved / sampled. Per op for the
/// cold workloads; across requests for serve_mix, whose service keeps one
/// warm cache and so does this work once per signature.
struct SeenWork {
  std::unordered_set<rascad::cache::Signature, rascad::cache::SignatureHash>
      blocks;
  std::unordered_set<rascad::cache::Signature, rascad::cache::SignatureHash>
      curves;
};

/// One solve op (parse, validate, generate + steady per new block
/// signature, curves per new signature, interval availability and
/// reliability at mission time, and the report when `report`), each call
/// timed. The SystemModel is built with `cache` and one thread.
/// Returns the built model for the caller's checks.
rascad::mg::SystemModel decompose_solve(const std::string& text,
                                        rascad::cache::SolveCache& cache,
                                        SeenWork& seen, bool report,
                                        LayerTotals& t);

/// Generate + steady solve of one block, timed into `t`, unless its
/// signature is already in `seen`.
void decompose_block(const rascad::spec::BlockSpec& block,
                     const rascad::spec::GlobalParams& globals,
                     SeenWork& seen, LayerTotals& t);

/// Obs span totals (ms) of one instrumented pass, by span name.
struct SpanTotals {
  double parse_ms = 0.0;     // spec.parse
  double generate_ms = 0.0;  // mg.generate
  double block_ms = 0.0;     // block.solve
  double curve_ms = 0.0;     // curve.sample
  void add_drained();        // drains obs buffers into the totals
};

/// into += c, for summing the counters of per-op caches.
void add_counters(rascad::cache::CacheCounters& into,
                  const rascad::cache::CacheCounters& c);

/// Everything a traced run reports. Fields a workload does not exercise
/// stay 0.
struct TraceReport {
  LayerTotals layers;
  rascad::cache::CacheCounters cache_blocks;
  rascad::cache::CacheCounters cache_curves;
  double cpu_util = 0.0;  // process CPU / (wall * threads)
  SpanTotals spans;
  std::uint64_t span_ops = 0;
  /// Mean untraced single-threaded op latency over the same texts, ms.
  double untraced_op_ms = 0.0;
  double serve_rejected = 0.0;
  double serve_inflight_peak = 0.0;
  double late_ms_p90 = 0.0;
  double repeat_share = 0.0;
  double duplicate_block_share = 0.0;
  double n_min = 0.0;
  double n_max = 0.0;
};

/// Appends every per_layer metric (per-op means for times and counts).
void add_trace_metrics(Outcome& out, const TraceReport& r);

/// Largest allowed gap between the per-op sum of layer busy times and the
/// untraced single-threaded op latency, as a fraction of the latter.
constexpr double kReconcileFrac = 0.10;

/// Notes the reconciliation gap (the tracing overhead). With `enforce`
/// (corpus_cold, the workload the split is calibrated on) a gap beyond
/// kReconcileFrac fails the run; elsewhere it is reported only.
void reconcile(Outcome& out, Checks& checks, const TraceReport& r,
               bool enforce);

}  // namespace perfbench

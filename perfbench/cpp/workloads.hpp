// The three workloads. Each runs in its own process and returns the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
#pragma once

#include "corpus.hpp"
#include "measure.hpp"

namespace perfbench {

/// Closed loop, one caller, exec threads = 1: parse -> build -> interval
/// availability + reliability at mission time -> report, fresh cache per op.
Outcome run_corpus_cold(const Args& args, const Digest& digest,
                        Digest* written);

/// Closed loop, one caller, default exec pool: an incremental MTBF sweep
/// of one deep Type 4 block, steady-state measures only, fresh cache per op.
Outcome run_deep_sweep(const Args& args, const Digest& digest,
                       Digest* written);

/// Open loop at a fixed offered rate against an in-process serve::Service
/// with one warm cache: new, repeated and sweep requests.
Outcome run_serve_mix(const Args& args);

}  // namespace perfbench

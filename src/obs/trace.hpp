// Hierarchical span tracing with per-thread buffers.
//
// A Span is an RAII scope: construction stamps a start time and pushes the
// span onto the calling thread's ambient stack, destruction stamps the end
// time and appends a record to the thread's buffer. Nesting therefore
// falls out of scoping — a block solve running inside a system build
// records the build span as its parent, and the flushed records
// reconstruct the full tree (spec parse -> model generation -> per-block
// solve -> solve episode -> cache lookup).
//
// Cross-thread edges: work dispatched to pool workers is not lexically
// nested in the submitting scope, so exec::parallel_for captures the
// caller's current span id and installs it on each worker via ParentScope
// while a chunk runs. The trace tree then matches the logical call tree,
// not the thread layout.
//
// Determinism: buffers are merged at flush into one list ordered by
// (start_ns, id) — a total order over the recorded data, so the merged
// sequence is independent of thread registration order and flush timing.
// Timestamps themselves are wall-clock observations and naturally vary
// between runs; the *structure* (names, parent edges, nesting) is what the
// determinism tests pin down.
//
// Disabled mode: Span construction is a single relaxed atomic load and a
// zero-write; nothing is allocated, timed, or buffered.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace rascad::obs {

using SpanId = std::uint64_t;

/// One finished span as drained from the thread buffers.
struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;       // 0 = root
  const char* name = "";   // static string supplied at the span site
  std::string detail;      // free-form annotation ("Server Box/CPU fresh")
  std::uint64_t start_ns = 0;  // relative to the process trace epoch
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;    // dense per-process thread index
  /// Global record sequence number, assigned when the record lands in a
  /// buffer (monotone in append order, shared with events). The scraping
  /// layer's incremental-read cursor: peek_trace_since(seq) returns only
  /// records newer than a scraper's high-water mark without consuming
  /// anything, so scrapes never steal records from dump/drain consumers.
  std::uint64_t seq = 0;
};

/// Out-of-band occurrence (solve attempt failed, health check tripped):
/// a kind, key/value fields, and the span it happened under.
struct EventRecord {
  const char* kind = "";
  std::vector<std::pair<std::string, std::string>> fields;
  std::uint64_t t_ns = 0;
  SpanId span = 0;
  std::uint32_t thread = 0;
  std::uint64_t seq = 0;  // see SpanRecord::seq
};

/// Innermost active span on this thread (0 when none / disabled).
SpanId current_span() noexcept;

/// RAII scoped span. `name` must be a string literal (stored by pointer).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// False when observability was disabled at construction; use it to
  /// skip building detail strings the span would discard.
  bool active() const noexcept { return id_ != 0; }
  SpanId id() const noexcept { return id_; }

  /// Annotation recorded with the span; no-op when inactive.
  void set_detail(std::string detail);

 private:
  SpanId id_ = 0;
  SpanId parent_ = 0;
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::string detail_;
};

/// Installs `parent` as this thread's ambient parent span for the scope —
/// the cross-thread propagation primitive used by the exec layer.
class ParentScope {
 public:
  explicit ParentScope(SpanId parent) noexcept;
  ~ParentScope();
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  SpanId saved_ = 0;
  bool active_ = false;
};

/// Records an event under the current span. No-op when disabled.
void emit_event(const char* kind,
                std::vector<std::pair<std::string, std::string>> fields);

/// Everything collected since the last drain/clear.
struct TraceDump {
  std::vector<SpanRecord> spans;   // sorted by (start_ns, id)
  std::vector<EventRecord> events; // sorted by (t_ns, thread)
  std::uint64_t dropped = 0;       // spans/events lost to buffer caps
};

/// Moves all finished spans and events out of the buffers (merged and
/// sorted); subsequent drains see only newer data. Spans still open stay
/// owned by their Span object and surface in a later drain.
TraceDump drain_trace();

/// Copy of what drain_trace would return, leaving the buffers intact.
TraceDump peek_trace();

/// Copy of every buffered record with seq > after_seq, leaving the buffers
/// intact — the incremental-read primitive for telemetry scrapers. Each
/// scraper keeps its own high-water mark (the max seq it has seen, see
/// export/delta.hpp), so concurrent scrapers are independent and none of
/// them interferes with dump_if_enabled()'s drain. Records drained by a
/// dump before a scraper reads them are gone for that scraper (they went
/// to the dump file); TraceDump::dropped reports the current buffer-cap
/// drop total, not a per-cursor delta.
TraceDump peek_trace_since(std::uint64_t after_seq);

/// Discards all buffered spans and events.
void clear_trace();

}  // namespace rascad::obs

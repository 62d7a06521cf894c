// Memoized block solves: a thread-safe, sharded, bounded-LRU table from
// canonical chain signatures (signature.hpp) to solved block results.
//
// The table exists because real models repeat themselves: hierarchies
// contain parameter-identical blocks, sweeps re-solve a model in which all
// but one block is unchanged, and sensitivity probes perturb one parameter
// at a time. A hit returns the exact chain and measures the producing
// solve computed — results are bit-identical with and without the cache
// because a signature match guarantees the generator and solver would have
// performed the identical arithmetic.
//
// Concurrency: keys are striped over fixed shards by hash, each shard a
// mutex + LRU list + hash map. Lookups from exec::parallel_for workers
// contend only within a shard. Fills are single-flight: the first miss on
// a key marks it in flight and runs the fill outside the shard lock; later
// callers on that key wait on the shard's condition variable and count as
// hits, so every distinct key is computed once and the counters are
// independent of scheduling. A fill that throws clears the mark and wakes
// the waiters, one of which takes the fill over with its own closure and
// token — a cancelled request never poisons another. Waiters poll their
// own stop token between timed waits, so cancel latency stays bounded
// while another caller fills.
//
// Interaction with the resilience layer: a cached entry stores the
// SolveTrace of the solve episode that produced it, so resilience
// reporting stays honest — consumers re-label the trace's provenance
// (SolveSource::kCacheHit) without discarding the original attempts.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "cache/signature.hpp"
#include "linalg/dense.hpp"
#include "markov/ctmc.hpp"
#include "resilience/resilience.hpp"
#include "robust/cancel.hpp"

namespace rascad::obs {
class Counter;
}  // namespace rascad::obs

namespace rascad::cache {

/// One memoized block solve: everything SystemModel needs to assemble a
/// BlockEntry without generating or solving anything.
struct CachedBlockSolve {
  std::shared_ptr<const markov::Ctmc> chain;
  markov::StateIndex initial = 0;
  double availability = 1.0;
  double eq_failure_rate = 0.0;
  /// Episode of the solve that filled this entry.
  resilience::SolveTrace trace;
};

/// Aggregate counters for one table (blocks or curves). Produced by
/// SolveCache::block_counters / curve_counters as one consistent snapshot:
/// all shards are locked before any is read, so concurrent lookups can
/// never make `hits + misses` disagree with the number of completed
/// lookups. A caller that waited for another's fill counts as a hit; one
/// that ran the fill (first, or taking over a failed one) as a miss.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  double hit_rate() const noexcept {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

class SolveCache {
 public:
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Capacities are totals across shards (floored at one entry per shard).
  explicit SolveCache(std::size_t block_capacity = kDefaultCapacity,
                      std::size_t curve_capacity = kDefaultCapacity);

  /// What a get-or-fill call returns: the entry, and whether this call
  /// ran the fill (a miss) instead of finding the entry or waiting for
  /// another caller's fill (a hit).
  template <typename Value>
  struct Lookup {
    Value value;
    bool filled = false;
  };
  using BlockFill = std::function<CachedBlockSolve()>;
  using CurveFill = std::function<std::shared_ptr<const linalg::Vector>()>;

  /// Block-solve table: the entry for `key`, marked most-recently-used,
  /// or on a miss the result of `fill`, inserted before it is returned.
  /// Single-flight (see the file comment). A caller waiting on another's
  /// fill throws SolveError(kCancelled / kDeadlineExceeded) once `stop`
  /// fires; the filler is unaffected. Exceptions from `fill` propagate and
  /// leave no entry.
  Lookup<CachedBlockSolve> get_or_fill_block(
      const Signature& key, const BlockFill& fill,
      const robust::CancelToken& stop = {});

  /// Sampled-curve table (reward / survival curves keyed by chain
  /// signature + curve kind + horizon + step count); same contract.
  Lookup<std::shared_ptr<const linalg::Vector>> get_or_fill_curve(
      const Signature& key, const CurveFill& fill,
      const robust::CancelToken& stop = {});

  CacheCounters block_counters() const;
  CacheCounters curve_counters() const;

  /// Rebinds this instance's global-registry counter mirrors (construction
  /// binds every cache to "cache.block" / "cache.curve"). The serve daemon
  /// points its cross-request cache at "serve.cache.*" so daemon cache
  /// traffic stays separable from one-shot solves in metric dumps.
  void bind_metrics(const char* block_prefix, const char* curve_prefix);

  /// Drops every entry; counters are reset too.
  void clear();

  std::size_t block_capacity() const noexcept { return block_capacity_; }
  std::size_t curve_capacity() const noexcept { return curve_capacity_; }

  /// Process-global instance used by default SystemModel options.
  static SolveCache& global();

 private:
  template <typename Value>
  class Table {
   public:
    void set_capacity(std::size_t per_shard) { per_shard_ = per_shard; }
    /// Mirrors shard counter updates onto the global obs registry under
    /// `<prefix>.hits` / `.misses` / `.insertions` / `.evictions`
    /// (observability-gated; registry totals span every cache instance
    /// bound to the prefix).
    void bind_metrics(const char* prefix);
    Lookup<Value> get_or_fill(const Signature& key,
                              const std::function<Value()>& fill,
                              const robust::CancelToken& stop);
    CacheCounters counters() const;
    void clear();

   private:
    struct Node {
      Signature key;
      Value value;
    };
    struct Shard {
      mutable std::mutex mutex;
      /// Signalled whenever a fill in this shard ends, inserted or thrown.
      std::condition_variable fill_done;
      std::list<Node> lru;  // front = most recently used
      std::unordered_map<Signature, typename std::list<Node>::iterator,
                         SignatureHash>
          index;
      /// Keys whose fill is running on some caller right now.
      std::unordered_set<Signature, SignatureHash> in_flight;
      std::uint64_t hits = 0;
      std::uint64_t misses = 0;
      std::uint64_t insertions = 0;
      std::uint64_t evictions = 0;
    };
    Shard& shard_for(const Signature& key) {
      return shards_[key.hash() % kShards];
    }
    std::size_t per_shard_ = 1;
    Shard shards_[kShards];
    /// Global-registry mirrors of the shard counters; null until
    /// bind_metrics. Updated only while obs::enabled().
    obs::Counter* hits_metric_ = nullptr;
    obs::Counter* misses_metric_ = nullptr;
    obs::Counter* insertions_metric_ = nullptr;
    obs::Counter* evictions_metric_ = nullptr;
  };

  std::size_t block_capacity_;
  std::size_t curve_capacity_;
  Table<CachedBlockSolve> blocks_;
  Table<std::shared_ptr<const linalg::Vector>> curves_;
};

}  // namespace rascad::cache

#include "cache/solve_cache.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace rascad::cache {

template <typename Value>
void SolveCache::Table<Value>::bind_metrics(const char* prefix) {
  obs::Registry& registry = obs::Registry::global();
  const std::string p(prefix);
  hits_metric_ = &registry.counter(p + ".hits");
  misses_metric_ = &registry.counter(p + ".misses");
  insertions_metric_ = &registry.counter(p + ".insertions");
  evictions_metric_ = &registry.counter(p + ".evictions");
}

namespace {

/// Longest a waiter sleeps before re-polling its own stop token.
constexpr std::chrono::milliseconds kWaitPoll{1};

}  // namespace

template <typename Value>
SolveCache::Lookup<Value> SolveCache::Table<Value>::get_or_fill(
    const Signature& key, const std::function<Value()>& fill,
    const robust::CancelToken& stop) {
  Shard& s = shard_for(key);
  {
    obs::Span span("cache.lookup");
    std::unique_lock<std::mutex> lock(s.mutex);
    bool waited = false;
    for (;;) {
      const auto it = s.index.find(key);
      if (it != s.index.end()) {
        ++s.hits;
        if (obs::enabled() && hits_metric_) {
          hits_metric_->inc();
          span.set_detail(waited ? "hit after wait" : "hit");
        }
        s.lru.splice(s.lru.begin(), s.lru, it->second);
        return {it->second->value, false};
      }
      if (s.in_flight.insert(key).second) break;  // this caller fills
      waited = true;
      robust::throw_if_stopped(stop, "SolveCache: waiting for a fill");
      s.fill_done.wait_for(lock, kWaitPoll);
    }
    ++s.misses;
    if (obs::enabled() && misses_metric_) {
      misses_metric_->inc();
      span.set_detail(waited ? "miss after wait" : "miss");
    }
  }

  // The fill runs outside the lock and the lookup span. Every exit clears
  // the in-flight mark and wakes the shard, so after a throw one waiter
  // takes the fill over.
  Value value;
  try {
    value = fill();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(s.mutex);
      s.in_flight.erase(key);
    }
    s.fill_done.notify_all();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.in_flight.erase(key);
    s.lru.push_front(Node{key, value});
    s.index.emplace(key, s.lru.begin());
    ++s.insertions;
    if (obs::enabled() && insertions_metric_) insertions_metric_->inc();
    while (s.lru.size() > per_shard_) {
      s.index.erase(s.lru.back().key);
      s.lru.pop_back();
      ++s.evictions;
      if (obs::enabled() && evictions_metric_) evictions_metric_->inc();
    }
  }
  s.fill_done.notify_all();
  return {std::move(value), true};
}

template <typename Value>
CacheCounters SolveCache::Table<Value>::counters() const {
  // Consistent snapshot: hold every shard lock before reading any field,
  // so a lookup that completes concurrently is either fully included or
  // fully excluded — per-field sums can never mix "before" and "after"
  // states of one operation. Shards are locked in index order (the only
  // multi-shard acquisition in the cache, so no ordering conflicts).
  std::array<std::unique_lock<std::mutex>, kShards> locks;
  for (std::size_t i = 0; i < kShards; ++i) {
    locks[i] = std::unique_lock<std::mutex>(shards_[i].mutex);
  }
  CacheCounters out;
  for (const Shard& s : shards_) {
    out.hits += s.hits;
    out.misses += s.misses;
    out.insertions += s.insertions;
    out.evictions += s.evictions;
    out.entries += s.lru.size();
  }
  return out;
}

template <typename Value>
void SolveCache::Table<Value>::clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.lru.clear();
    s.index.clear();
    s.hits = s.misses = s.insertions = s.evictions = 0;
  }
}

SolveCache::SolveCache(std::size_t block_capacity, std::size_t curve_capacity)
    : block_capacity_(std::max<std::size_t>(block_capacity, 1)),
      curve_capacity_(std::max<std::size_t>(curve_capacity, 1)) {
  blocks_.set_capacity(std::max<std::size_t>(1, block_capacity_ / kShards));
  curves_.set_capacity(std::max<std::size_t>(1, curve_capacity_ / kShards));
  blocks_.bind_metrics("cache.block");
  curves_.bind_metrics("cache.curve");
}

void SolveCache::bind_metrics(const char* block_prefix,
                              const char* curve_prefix) {
  blocks_.bind_metrics(block_prefix);
  curves_.bind_metrics(curve_prefix);
}

SolveCache::Lookup<CachedBlockSolve> SolveCache::get_or_fill_block(
    const Signature& key, const BlockFill& fill,
    const robust::CancelToken& stop) {
  return blocks_.get_or_fill(key, fill, stop);
}

SolveCache::Lookup<std::shared_ptr<const linalg::Vector>>
SolveCache::get_or_fill_curve(const Signature& key, const CurveFill& fill,
                              const robust::CancelToken& stop) {
  return curves_.get_or_fill(key, fill, stop);
}

CacheCounters SolveCache::block_counters() const { return blocks_.counters(); }

CacheCounters SolveCache::curve_counters() const { return curves_.counters(); }

void SolveCache::clear() {
  blocks_.clear();
  curves_.clear();
}

SolveCache& SolveCache::global() {
  static SolveCache* cache = new SolveCache();  // leaked: outlives all users
  return *cache;
}

}  // namespace rascad::cache

// Memoized block-solve cache: signature canonicality and masking,
// hit/miss/eviction counters, LRU bounding, single-flight fills, provenance
// on SolveTrace, and the bit-identical-results contract — cold vs warm
// cache, cached vs uncached sweeps, and across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/signature.hpp"
#include "cache/solve_cache.hpp"
#include "core/library.hpp"
#include "core/sweep.hpp"
#include "mg/generator.hpp"
#include "mg/system.hpp"
#include "resilience/resilience.hpp"

namespace {

using rascad::cache::CacheCounters;
using rascad::cache::CachedBlockSolve;
using rascad::cache::Signature;
using rascad::cache::SolveCache;
using rascad::core::SweepOptions;
using rascad::core::SweepPoint;
using rascad::mg::SystemModel;
using rascad::resilience::SolveCause;
using rascad::resilience::SolveError;
using rascad::resilience::SolveSource;
using rascad::robust::CancelToken;
using rascad::spec::BlockSpec;
using rascad::spec::DiagramSpec;
using rascad::spec::ModelSpec;
using rascad::spec::Transparency;

BlockSpec simple_block(const std::string& name, double mtbf_h) {
  BlockSpec b;
  b.name = name;
  b.mtbf_h = mtbf_h;
  b.mttr_corrective_min = 90.0;
  b.service_response_h = 4.0;
  return b;
}

BlockSpec redundant_block(const std::string& name, double mtbf_h) {
  BlockSpec b = simple_block(name, mtbf_h);
  b.quantity = 2;
  b.min_quantity = 1;
  b.recovery = Transparency::kTransparent;
  b.repair = Transparency::kTransparent;
  return b;
}

/// Two-block model: a permanent-only Type 0 and a redundant pair.
ModelSpec small_model() {
  ModelSpec m;
  m.title = "cache-test";
  DiagramSpec d;
  d.name = "Root";
  d.blocks.push_back(simple_block("Solo", 120'000.0));
  d.blocks.push_back(redundant_block("Pair", 250'000.0));
  m.diagrams.push_back(std::move(d));
  return m;
}

SystemModel::Options options_with(SolveCache* cache, std::size_t threads = 0) {
  SystemModel::Options opts;
  opts.cache = cache;
  if (threads > 0) opts.parallel.threads = threads;
  return opts;
}

// ---------------------------------------------------------------------------
// Signatures

TEST(ChainSignature, IdenticalBlocksShareASignature) {
  const ModelSpec m = small_model();
  const Signature a =
      rascad::mg::chain_signature(m.root().blocks[0], m.globals);
  const Signature b =
      rascad::mg::chain_signature(m.root().blocks[0], m.globals);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(ChainSignature, RateChangeChangesTheSignature) {
  const ModelSpec m = small_model();
  BlockSpec changed = m.root().blocks[0];
  changed.mtbf_h *= 1.01;
  EXPECT_NE(rascad::mg::chain_signature(m.root().blocks[0], m.globals),
            rascad::mg::chain_signature(changed, m.globals));
}

TEST(ChainSignature, NameIsNotPartOfTheSignature) {
  // Parameter-identical blocks must share one memo entry regardless of
  // their names — that is what makes intra-model sharing work.
  const ModelSpec m = small_model();
  BlockSpec renamed = m.root().blocks[0];
  renamed.name = "Completely Different";
  EXPECT_EQ(rascad::mg::chain_signature(m.root().blocks[0], m.globals),
            rascad::mg::chain_signature(renamed, m.globals));
}

TEST(ChainSignature, MaskedGlobalEditLeavesSignatureUnchanged) {
  // A permanent-only Type 0 block never reboots (no transient faults), so
  // the generator ignores Tboot: editing the global must not dirty it.
  const ModelSpec m = small_model();
  rascad::spec::GlobalParams edited = m.globals;
  edited.reboot_time_h *= 3.0;
  EXPECT_EQ(rascad::mg::chain_signature(m.root().blocks[0], m.globals),
            rascad::mg::chain_signature(m.root().blocks[0], edited));
}

TEST(ChainSignature, ReachingGlobalEditChangesSignature) {
  // MTTM feeds the deferred-repair dwell of a redundant block with
  // permanent faults, but a Type 0 block repairs immediately (no deferred
  // cycle), so the same edit must dirty one block and not the other.
  const ModelSpec m = small_model();
  rascad::spec::GlobalParams edited = m.globals;
  edited.mttm_h += 24.0;
  EXPECT_EQ(rascad::mg::chain_signature(m.root().blocks[0], m.globals),
            rascad::mg::chain_signature(m.root().blocks[0], edited));
  EXPECT_NE(rascad::mg::chain_signature(m.root().blocks[1], m.globals),
            rascad::mg::chain_signature(m.root().blocks[1], edited));
}

TEST(ChainSignature, FullWordEqualityNotJustHash) {
  Signature a;
  a.append_word(1);
  a.append_word(2);
  Signature b;
  b.append_word(1);
  ASSERT_NE(a.words(), b.words());
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// SolveCache table behaviour

Signature word_key(std::uint64_t w) {
  Signature s;
  s.append_word(w);
  return s;
}

/// A fill that returns `value`; counts its calls in `*calls` if given.
SolveCache::BlockFill fill_with(const CachedBlockSolve& value,
                                std::atomic<int>* calls = nullptr) {
  return [value, calls] {
    if (calls) ++*calls;
    return value;
  };
}

TEST(SolveCache, HitAndMissCountersTrackLookups) {
  SolveCache cache;
  CachedBlockSolve value;
  value.availability = 0.5;
  std::atomic<int> calls{0};
  EXPECT_TRUE(cache.get_or_fill_block(word_key(1), fill_with(value, &calls))
                  .filled);
  const auto hit =
      cache.get_or_fill_block(word_key(1), fill_with({}, &calls));
  EXPECT_FALSE(hit.filled);
  EXPECT_EQ(hit.value.availability, 0.5);
  EXPECT_EQ(calls.load(), 1);
  const CacheCounters c = cache.block_counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.insertions, 1u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.5);
}

TEST(SolveCache, LruBoundsTheEntryCountAndEvicts) {
  // Capacity is floored at one entry per shard, so the tightest total
  // bound is max(kShards, capacity).
  SolveCache cache(SolveCache::kShards, SolveCache::kShards);
  for (std::uint64_t i = 0; i < 64; ++i) {
    cache.get_or_fill_block(word_key(i), fill_with({}));
  }
  const CacheCounters c = cache.block_counters();
  EXPECT_EQ(c.insertions, 64u);
  EXPECT_LE(c.entries, SolveCache::kShards);
  EXPECT_GT(c.evictions, 0u);
  EXPECT_EQ(c.entries + c.evictions, 64u);
  // The most recent key in its shard survived the evictions.
  EXPECT_FALSE(cache.get_or_fill_block(word_key(63), fill_with({})).filled);
}

TEST(SolveCache, ClearDropsEntriesAndCounters) {
  SolveCache cache;
  cache.get_or_fill_block(word_key(7), fill_with({}));
  cache.get_or_fill_block(word_key(7), fill_with({}));
  cache.clear();
  const CacheCounters c = cache.block_counters();
  EXPECT_EQ(c.entries, 0u);
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.insertions, 0u);
  EXPECT_TRUE(cache.get_or_fill_block(word_key(7), fill_with({})).filled);
}

TEST(SolveCache, ConcurrentMissesOnOneKeyFillOnce) {
  SolveCache cache;
  std::atomic<int> calls{0};
  CachedBlockSolve value;
  value.availability = 0.25;
  const SolveCache::BlockFill slow = [&] {
    ++calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return value;
  };
  constexpr std::size_t kCallers = 8;
  std::vector<std::thread> callers;
  std::atomic<int> filled{0};
  for (std::size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      const auto got = cache.get_or_fill_block(word_key(3), slow);
      EXPECT_EQ(got.value.availability, 0.25);
      if (got.filled) ++filled;
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(filled.load(), 1);
  const CacheCounters c = cache.block_counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, kCallers - 1);
  EXPECT_EQ(c.insertions, 1u);
}

TEST(SolveCache, ThrowingFillHandsTheKeyToAWaiter) {
  SolveCache cache;
  std::promise<void> started;
  std::thread first([&] {
    EXPECT_THROW(cache.get_or_fill_block(word_key(5),
                                         [&]() -> CachedBlockSolve {
                                           started.set_value();
                                           std::this_thread::sleep_for(
                                               std::chrono::milliseconds(50));
                                           throw std::runtime_error("boom");
                                         }),
                 std::runtime_error);
  });
  started.get_future().wait();
  // Arrives while the first fill is in flight, waits, then takes over.
  // The deadline turns a mark the throw failed to clear into a failure
  // instead of a hang.
  CachedBlockSolve value;
  value.availability = 0.75;
  std::atomic<int> calls{0};
  SolveCache::Lookup<CachedBlockSolve> got;
  EXPECT_NO_THROW(got = cache.get_or_fill_block(
                      word_key(5), fill_with(value, &calls),
                      CancelToken::with_deadline_ms(10'000.0)));
  first.join();
  EXPECT_TRUE(got.filled);
  EXPECT_EQ(got.value.availability, 0.75);
  EXPECT_EQ(calls.load(), 1);
  const CacheCounters c = cache.block_counters();
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.insertions, 1u);
  EXPECT_EQ(c.entries, 1u);
}

TEST(SolveCache, CancelledWaiterThrowsWhileTheFillerInserts) {
  SolveCache cache;
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  CachedBlockSolve value;
  value.availability = 0.125;
  std::thread filler([&] {
    const auto got = cache.get_or_fill_block(word_key(9), [&] {
      started.set_value();
      released.wait();
      return value;
    });
    EXPECT_TRUE(got.filled);
  });
  started.get_future().wait();

  const CancelToken token = CancelToken::manual();
  auto waiter = std::async(std::launch::async, [&] {
    try {
      cache.get_or_fill_block(word_key(9), fill_with({}), token);
    } catch (const SolveError& e) {
      return e.cause();
    }
    return SolveCause::kInvalidInput;  // returned instead of throwing
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto cancelled_at = std::chrono::steady_clock::now();
  token.request_cancel();
  const bool observed = waiter.wait_for(std::chrono::seconds(2)) ==
                        std::future_status::ready;
  const double latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - cancelled_at)
          .count();
  EXPECT_TRUE(observed) << "waiter did not observe its token";
  EXPECT_LT(latency_ms, 1000.0);

  // Released only now, so the waiter cannot have been handed the entry.
  release.set_value();
  filler.join();
  EXPECT_EQ(waiter.get(), SolveCause::kCancelled);
  const CacheCounters c = cache.block_counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.insertions, 1u);
  const auto hit = cache.get_or_fill_block(word_key(9), fill_with({}));
  EXPECT_FALSE(hit.filled);
  EXPECT_EQ(hit.value.availability, 0.125);
}

// ---------------------------------------------------------------------------
// solve_block_cached provenance + bit-identical results

TEST(SolveBlockCached, SecondSolveIsACacheHitWithIdenticalNumbers) {
  const ModelSpec m = small_model();
  const auto config = rascad::resilience::config_from({});
  const Signature solver_sig = rascad::mg::solver_signature(config);
  SolveCache cache;

  const auto first = rascad::mg::solve_block_cached(
      "Root", m.root().blocks[1], m.globals, config, solver_sig, &cache);
  EXPECT_EQ(first.solve_trace.source, SolveSource::kFresh);

  const auto second = rascad::mg::solve_block_cached(
      "Root", m.root().blocks[1], m.globals, config, solver_sig, &cache);
  EXPECT_EQ(second.solve_trace.source, SolveSource::kCacheHit);
  EXPECT_EQ(second.availability, first.availability);
  EXPECT_EQ(second.eq_failure_rate, first.eq_failure_rate);
  EXPECT_EQ(second.yearly_downtime_min, first.yearly_downtime_min);
  // The cached entry carries the producing episode's attempts.
  EXPECT_EQ(second.solve_trace.attempts.size(),
            first.solve_trace.attempts.size());
  // Both entries share the one generated chain.
  EXPECT_EQ(second.chain.get(), first.chain.get());
  EXPECT_EQ(cache.block_counters().hits, 1u);
}

TEST(SolveBlockCached, NullCacheSolvesFreshWithIdenticalNumbers) {
  const ModelSpec m = small_model();
  const auto config = rascad::resilience::config_from({});
  const Signature solver_sig = rascad::mg::solver_signature(config);
  SolveCache cache;
  const auto cached = rascad::mg::solve_block_cached(
      "Root", m.root().blocks[0], m.globals, config, solver_sig, &cache);
  const auto uncached = rascad::mg::solve_block_cached(
      "Root", m.root().blocks[0], m.globals, config, solver_sig, nullptr);
  EXPECT_EQ(uncached.solve_trace.source, SolveSource::kFresh);
  EXPECT_EQ(uncached.availability, cached.availability);
  EXPECT_EQ(uncached.eq_failure_rate, cached.eq_failure_rate);
}

TEST(SystemModelCache, DatacenterBuildHitsOnParameterIdenticalBlocks) {
  // The library datacenter contains parameter-identical FRU pairs (e.g.
  // Blower Assembly and Disk Controller), so even a single cold build
  // hits. Fills are single-flight, so the counters are exact at every
  // thread count: one miss and one insertion per distinct chain, a hit
  // for every other block.
  const ModelSpec m = rascad::core::library::datacenter_system();
  std::vector<CacheCounters> seen;
  for (std::size_t threads : {1u, 2u, 8u}) {
    SolveCache cache;
    const auto system = SystemModel::build(m, options_with(&cache, threads));
    std::set<std::vector<std::uint64_t>> distinct;
    for (const auto& b : system.blocks()) distinct.insert(b.signature.words());
    ASSERT_LT(distinct.size(), system.blocks().size());
    const CacheCounters c = cache.block_counters();
    EXPECT_EQ(c.misses, distinct.size()) << threads;
    EXPECT_EQ(c.insertions, distinct.size()) << threads;
    EXPECT_EQ(c.hits, system.blocks().size() - distinct.size()) << threads;
    EXPECT_GT(system.availability(), 0.0);
    seen.push_back(c);
  }
  for (const CacheCounters& c : seen) {
    EXPECT_EQ(c.hits, seen[0].hits);
    EXPECT_EQ(c.misses, seen[0].misses);
    EXPECT_EQ(c.insertions, seen[0].insertions);
  }
}

TEST(SystemModelCache, WarmBuildIsBitIdenticalToColdBuild) {
  const ModelSpec m = rascad::core::library::datacenter_system();
  SolveCache cache;
  const auto cold = SystemModel::build(m, options_with(&cache));
  const auto warm = SystemModel::build(m, options_with(&cache));
  const auto uncached = SystemModel::build(m, options_with(nullptr));
  EXPECT_EQ(warm.availability(), cold.availability());
  EXPECT_EQ(uncached.availability(), cold.availability());
  EXPECT_EQ(warm.eq_failure_rate(), cold.eq_failure_rate());
  EXPECT_EQ(uncached.eq_failure_rate(), cold.eq_failure_rate());
  // Every block of the warm build came from the memo table.
  for (const auto& b : warm.blocks()) {
    EXPECT_EQ(b.solve_trace.source, SolveSource::kCacheHit) << b.block.name;
  }
}

TEST(SystemModelCache, CurveQueriesHitTheCurveTable) {
  const ModelSpec m = small_model();
  SolveCache cache;
  const auto system = SystemModel::build(m, options_with(&cache));
  const double cold = system.interval_availability(8760.0);
  const auto after_cold = cache.curve_counters();
  EXPECT_GT(after_cold.insertions, 0u);
  const double warm = system.interval_availability(8760.0);
  const auto after_warm = cache.curve_counters();
  EXPECT_GT(after_warm.hits, after_cold.hits);
  EXPECT_EQ(warm, cold);
  // Reliability curves are keyed separately from availability curves.
  const double rel = system.reliability(8760.0);
  EXPECT_GT(rel, 0.0);
  EXPECT_LT(rel, 1.0);
  EXPECT_EQ(system.reliability(8760.0), rel);
}

// ---------------------------------------------------------------------------
// Rebuilding an edited spec on a shared cache

TEST(SharedCache, UnchangedSpecRebuiltSharesEveryChain) {
  const ModelSpec m = small_model();
  SolveCache cache;
  const auto base = SystemModel::build(m, options_with(&cache));
  const auto again = SystemModel::build(m, options_with(&cache));
  ASSERT_EQ(again.blocks().size(), base.blocks().size());
  for (const auto& b : again.blocks()) {
    EXPECT_EQ(b.solve_trace.source, SolveSource::kCacheHit) << b.block.name;
  }
  EXPECT_EQ(again.availability(), base.availability());
  EXPECT_EQ(again.eq_failure_rate(), base.eq_failure_rate());
  // Hits share the first build's generated chains.
  for (std::size_t i = 0; i < again.blocks().size(); ++i) {
    EXPECT_EQ(again.blocks()[i].chain.get(), base.blocks()[i].chain.get());
  }
}

TEST(SharedCache, OnlyTheEditedBlockIsFresh) {
  ModelSpec m = small_model();
  SolveCache cache;
  SystemModel::build(m, options_with(&cache));

  ModelSpec changed = m;
  changed.find_block("Root", "Pair")->mtbf_h = 275'000.0;
  const auto edited = SystemModel::build(changed, options_with(&cache));

  ASSERT_EQ(edited.blocks().size(), 2u);
  EXPECT_EQ(edited.blocks()[0].solve_trace.source, SolveSource::kCacheHit);
  EXPECT_EQ(edited.blocks()[1].solve_trace.source, SolveSource::kFresh);

  // Bit-identical to solving the changed spec from scratch, uncached.
  const auto direct = SystemModel::build(changed, options_with(nullptr));
  EXPECT_EQ(edited.availability(), direct.availability());
  EXPECT_EQ(edited.eq_failure_rate(), direct.eq_failure_rate());
}

TEST(SharedCache, EditedBlockSolvedEarlierIsACacheHit) {
  ModelSpec m = small_model();
  ModelSpec changed = m;
  changed.find_block("Root", "Pair")->mtbf_h = 275'000.0;

  SolveCache cache;
  // Prime the cache with the changed spec, then the base: building the
  // changed spec again solves nothing.
  SystemModel::build(changed, options_with(&cache));
  SystemModel::build(m, options_with(&cache));
  const auto again = SystemModel::build(changed, options_with(&cache));
  for (const auto& b : again.blocks()) {
    EXPECT_EQ(b.solve_trace.source, SolveSource::kCacheHit) << b.block.name;
  }
}

TEST(SharedCache, StructureEditsReuseEveryUnchangedChain) {
  ModelSpec m = small_model();
  SolveCache cache;
  SystemModel::build(m, options_with(&cache));

  // An added block is the only fresh solve.
  ModelSpec changed = m;
  changed.diagrams[0].blocks.push_back(simple_block("Extra", 90'000.0));
  const auto grown = SystemModel::build(changed, options_with(&cache));
  ASSERT_EQ(grown.blocks().size(), 3u);
  EXPECT_EQ(grown.blocks()[0].solve_trace.source, SolveSource::kCacheHit);
  EXPECT_EQ(grown.blocks()[1].solve_trace.source, SolveSource::kCacheHit);
  EXPECT_EQ(grown.blocks()[2].solve_trace.source, SolveSource::kFresh);
  const auto direct = SystemModel::build(changed, options_with(nullptr));
  EXPECT_EQ(grown.availability(), direct.availability());

  // A name is not part of the chain, so a renamed block is still a hit
  // and keeps its new name.
  ModelSpec renamed = m;
  renamed.find_block("Root", "Pair")->name = "Pear";
  const auto rebuilt = SystemModel::build(renamed, options_with(&cache));
  EXPECT_EQ(rebuilt.blocks()[1].block.name, "Pear");
  for (const auto& b : rebuilt.blocks()) {
    EXPECT_EQ(b.solve_trace.source, SolveSource::kCacheHit) << b.block.name;
  }
}

// ---------------------------------------------------------------------------
// Sweeps: provenance columns + the determinism contract

void expect_bitwise_equal(const std::vector<SweepPoint>& a,
                          const std::vector<SweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].value, b[i].value) << i;
    EXPECT_EQ(a[i].availability, b[i].availability) << i;
    EXPECT_EQ(a[i].yearly_downtime_min, b[i].yearly_downtime_min) << i;
    EXPECT_EQ(a[i].eq_failure_rate, b[i].eq_failure_rate) << i;
  }
}

SweepOptions sweep_options(SolveCache* cache, std::size_t threads) {
  SweepOptions opts;
  opts.model.cache = cache;
  if (threads > 0) opts.parallel.threads = threads;
  return opts;
}

std::vector<SweepPoint> mtbf_sweep(const ModelSpec& m,
                                   const SweepOptions& opts) {
  return rascad::core::sweep_block_parameter(
      m, "Root", "Pair",
      [](BlockSpec& b, double v) { b.mtbf_h = v; },
      rascad::core::linspace(200'000.0, 400'000.0, 16), opts);
}

std::size_t fresh_total(const std::vector<SweepPoint>& points) {
  std::size_t n = 0;
  for (const auto& p : points) n += p.fresh_blocks;
  return n;
}

TEST(SweepCache, CachedSeriesMatchesUncachedBitwise) {
  const ModelSpec m = small_model();
  SolveCache cache;
  const auto cached = mtbf_sweep(m, sweep_options(&cache, 1));
  const auto uncached = mtbf_sweep(m, sweep_options(nullptr, 1));
  expect_bitwise_equal(cached, uncached);
  // Every point re-solves the swept block; the untouched one is solved
  // once for the whole sweep and is a cache hit everywhere else.
  for (const auto& p : cached) {
    EXPECT_EQ(p.reused_blocks, 0u) << p.value;
    EXPECT_EQ(p.fresh_blocks + p.cached_blocks, 2u) << p.value;
    EXPECT_EQ(p.solve_source, "fresh") << p.value;
  }
  EXPECT_EQ(fresh_total(cached), cached.size() + 1);
  EXPECT_EQ(fresh_total(uncached), 2 * uncached.size());
}

TEST(SweepCache, WarmSweepIsServedFromTheCacheBitwise) {
  const ModelSpec m = small_model();
  SolveCache cache;
  const auto cold = mtbf_sweep(m, sweep_options(&cache, 1));
  const auto warm = mtbf_sweep(m, sweep_options(&cache, 1));
  expect_bitwise_equal(cold, warm);
  for (const auto& p : warm) {
    EXPECT_EQ(p.fresh_blocks, 0u) << p.value;
    EXPECT_EQ(p.solve_iterations, 0u) << p.value;
    EXPECT_EQ(p.solve_source, "cache") << p.value;
  }
}

TEST(SweepCache, SeriesIsBitIdenticalAcrossThreadCounts) {
  const ModelSpec m = small_model();
  SolveCache c1, c2, c8;
  const auto t1 = mtbf_sweep(m, sweep_options(&c1, 1));
  const auto t2 = mtbf_sweep(m, sweep_options(&c2, 2));
  const auto t8 = mtbf_sweep(m, sweep_options(&c8, 8));
  expect_bitwise_equal(t1, t2);
  expect_bitwise_equal(t1, t8);
  // And warm reruns at a different thread count stay on the same bits.
  const auto warm8 = mtbf_sweep(m, sweep_options(&c1, 8));
  expect_bitwise_equal(t1, warm8);
}

TEST(SweepCache, ColdSweepFreshTotalIsTheSameAtEveryThreadCount) {
  // Which point pays for the shared block depends on scheduling; how many
  // solves the sweep runs does not, because fills are single-flight.
  const ModelSpec m = rascad::core::library::datacenter_system();
  const auto sweep = [&](std::size_t threads) {
    SolveCache cache;
    SweepOptions opts = sweep_options(&cache, threads);
    opts.model.parallel.threads = threads;
    const auto points = rascad::core::sweep_global_parameter(
        m, [](rascad::spec::GlobalParams& g, double v) { g.mttm_h = v; },
        rascad::core::linspace(24.0, 96.0, 6), opts);
    EXPECT_EQ(fresh_total(points), cache.block_counters().misses) << threads;
    return fresh_total(points);
  };
  const std::size_t t1 = sweep(1);
  EXPECT_GT(t1, 0u);
  EXPECT_EQ(sweep(2), t1);
  EXPECT_EQ(sweep(8), t1);
}

TEST(SweepCache, GlobalSweepReusesBlocksTheEditCannotReach) {
  // Tboot feeds no block of small_model's "Solo" (permanent-only Type 0),
  // so a global reboot-time sweep must solve it once for the whole sweep.
  ModelSpec m = small_model();
  m.find_block("Root", "Pair")->transient_fit = 500.0;  // Tboot reaches Pair
  const auto values = rascad::core::linspace(0.05, 0.5, 8);
  const auto set_tboot = [](rascad::spec::GlobalParams& g, double v) {
    g.reboot_time_h = v;
  };
  SolveCache cache;
  const auto points = rascad::core::sweep_global_parameter(
      m, set_tboot, values, sweep_options(&cache, 1));
  const auto uncached = rascad::core::sweep_global_parameter(
      m, set_tboot, values, sweep_options(nullptr, 1));
  expect_bitwise_equal(points, uncached);
  // Pair is fresh at every point, so Solo accounts for one solve.
  EXPECT_EQ(fresh_total(points), values.size() + 1);
  for (const auto& p : points) {
    EXPECT_EQ(p.reused_blocks, 0u) << p.value;
  }
}

TEST(SweepCache, BlockProbeDoesNotRequireACopy) {
  const ModelSpec m = small_model();
  EXPECT_NE(m.find_block("Root", "Solo"), nullptr);
  EXPECT_EQ(m.find_block("Root", "Nope"), nullptr);
  EXPECT_EQ(m.find_block("Nope", "Solo"), nullptr);
  EXPECT_THROW(
      rascad::core::sweep_block_parameter(
          m, "Root", "Nope", [](BlockSpec&, double) {},
          rascad::core::linspace(1.0, 2.0, 2)),
      std::invalid_argument);
}

}  // namespace

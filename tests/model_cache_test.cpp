// Tests for the ModelCache: hit/miss accounting, the model-affecting vs
// derivation-only options split, LRU eviction, failure semantics,
// byte-identical results with the cache on vs off across the registry, and
// concurrent lookup-or-build (the racing-batch case runs under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/benchmarks/registry.hpp"
#include "src/core/model_cache.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/synthesis.hpp"
#include "src/stg/generators.hpp"
#include "src/util/error.hpp"

namespace punt::core {
namespace {

using stg::Stg;

Stg dummy_stg() {
  // A structurally valid STG with a silent transition: SemanticModel::build
  // rejects it (the paper's method needs a signal edge on every transition).
  Stg stg;
  const stg::SignalId a = stg.add_signal("a", stg::SignalKind::Output);
  const stg::SignalId dum = stg.add_signal("eps", stg::SignalKind::Dummy);
  const auto a_up = stg.add_transition(a, stg::Polarity::Rise);
  const auto a_dn = stg.add_transition(a, stg::Polarity::Fall);
  const auto mid = stg.add_dummy_transition(dum);
  auto& net = stg.net();
  const auto p1 = net.add_place("p1");
  const auto p2 = net.add_place("p2");
  const auto p3 = net.add_place("p3");
  net.add_arc(p1, a_up);
  net.add_arc(a_up, p2);
  net.add_arc(p2, mid);
  net.add_arc(mid, p3);
  net.add_arc(p3, a_dn);
  net.add_arc(a_dn, p1);
  net.set_initial_tokens(p1, 1);
  return stg;
}

TEST(ModelCache, SecondLookupHitsAndReturnsTheSameModel) {
  ModelCache cache;
  const Stg stg = stg::make_paper_fig1();
  const SynthesisOptions options;

  bool built = false;
  const auto first = cache.lookup_or_build(stg, options, &built);
  EXPECT_TRUE(built);
  const auto second = cache.lookup_or_build(stg, options, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(first.get(), second.get());

  const ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  EXPECT_EQ(cache.size(), 1u);

  // The model is self-contained: it carries its own STG copy and targets.
  EXPECT_EQ(first->stg.signal_count(), stg.signal_count());
  EXPECT_EQ(first->targets, stg.non_input_signals());
  EXPECT_NE(first->unfolding, nullptr);
}

TEST(ModelCache, ExactAndApproxShareOneUnfoldingModel) {
  ModelCache cache;
  const Stg stg = stg::make_muller_pipeline(3);

  SynthesisOptions approx;
  approx.method = Method::UnfoldingApprox;
  SynthesisOptions exact;
  exact.method = Method::UnfoldingExact;
  SynthesisOptions sg;
  sg.method = Method::StateGraph;

  // Both unfolding methods consume the same segment — one key, one model.
  EXPECT_EQ(ModelCache::key_of(stg, approx), ModelCache::key_of(stg, exact));
  EXPECT_NE(ModelCache::key_of(stg, approx), ModelCache::key_of(stg, sg));

  const auto from_approx = cache.lookup_or_build(stg, approx);
  const auto from_exact = cache.lookup_or_build(stg, exact);
  const auto from_sg = cache.lookup_or_build(stg, sg);
  EXPECT_EQ(from_approx.get(), from_exact.get());
  EXPECT_NE(static_cast<const void*>(from_approx.get()),
            static_cast<const void*>(from_sg.get()));
  EXPECT_NE(from_sg->sgraph, nullptr);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ModelCache, DerivationOnlyOptionsShareAModel) {
  const Stg stg = stg::make_paper_fig1();
  const SynthesisOptions base;

  // Architecture, minimisation, CSC handling, jobs, the approximation
  // policy and the (derivation-time) cut budget must not split the cache.
  SynthesisOptions variant = base;
  variant.architecture = Architecture::RsLatch;
  variant.minimize = false;
  variant.throw_on_csc = false;
  variant.jobs = 8;
  variant.approx_policy = ApproxSetPolicy::PaperChains;
  variant.cut_budget = 17;
  EXPECT_EQ(ModelCache::key_of(stg, base), ModelCache::key_of(stg, variant));

  // The StateGraph-only budget is irrelevant to an unfolding model...
  SynthesisOptions state_budget = base;
  state_budget.state_budget = 123;
  EXPECT_EQ(ModelCache::key_of(stg, base), ModelCache::key_of(stg, state_budget));

  // ...while genuinely model-affecting options split as they must.
  SynthesisOptions event_budget = base;
  event_budget.event_budget = 123;
  EXPECT_NE(ModelCache::key_of(stg, base), ModelCache::key_of(stg, event_budget));
  SynthesisOptions persistency = base;
  persistency.check_persistency = false;
  EXPECT_NE(ModelCache::key_of(stg, base), ModelCache::key_of(stg, persistency));

  // Different STGs never collide, whatever the options.
  EXPECT_NE(ModelCache::key_of(stg, base),
            ModelCache::key_of(stg::make_muller_pipeline(2), base));
}

TEST(ModelCache, LruEvictsTheLeastRecentlyUsedModel) {
  ModelCache cache(2);
  EXPECT_EQ(cache.capacity(), 2u);
  const Stg a = stg::make_muller_pipeline(2);
  const Stg b = stg::make_muller_pipeline(3);
  const Stg c = stg::make_muller_pipeline(4);
  const SynthesisOptions options;

  const auto model_a = cache.lookup_or_build(a, options);
  (void)cache.lookup_or_build(b, options);
  (void)cache.lookup_or_build(a, options);  // touch: a is now most recent
  (void)cache.lookup_or_build(c, options);  // evicts b, not a
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  bool built = false;
  const auto again_a = cache.lookup_or_build(a, options, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(model_a.get(), again_a.get());  // survived the eviction
  (void)cache.lookup_or_build(b, options, &built);
  EXPECT_TRUE(built);  // b was evicted and had to be rebuilt
}

/// Regression: capacity bounding and size() used to consult only the
/// ready-entry LRU list, so N concurrent distinct-key in-flight builds grew
/// the slot map unboundedly past the capacity and size() under-reported
/// residency.  In-flight slots now count: installing one evicts completed
/// entries to make room, and size()/stats() report them.
TEST(ModelCache, InFlightBuildsCountAgainstCapacityAndAreReported) {
  ModelCache cache(2);
  const SynthesisOptions options;
  const Stg warm_a = stg::make_paper_fig1();
  const Stg warm_b = stg::make_muller_pipeline(2);
  (void)cache.lookup_or_build(warm_a, options);
  (void)cache.lookup_or_build(warm_b, options);
  EXPECT_EQ(cache.size(), 2u);

  // Hold three distinct-key builds in flight (one past capacity) behind a
  // latch; the keyed API lets the test inject blocking builders.
  constexpr std::size_t kBuilders = 3;
  std::latch started(kBuilders);
  std::latch release(1);
  const Stg payload = stg::make_muller_pipeline(3);
  std::vector<std::thread> threads;
  threads.reserve(kBuilders);
  for (std::size_t t = 0; t < kBuilders; ++t) {
    threads.emplace_back([&, t] {
      (void)cache.lookup_or_build_keyed("in-flight-key-" + std::to_string(t), [&] {
        started.count_down();
        release.wait();
        return SemanticModel::build(payload, options);
      });
    });
  }
  started.wait();

  // Residency is truthfully reported while the builds run: three in-flight
  // slots occupy the whole (exceeded) capacity, and installing them evicted
  // both completed entries.
  ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.in_flight, kBuilders);
  EXPECT_EQ(stats.resident, kBuilders);
  EXPECT_EQ(cache.size(), kBuilders);
  EXPECT_EQ(stats.evictions, 2u);

  release.count_down();
  for (std::thread& thread : threads) thread.join();

  // Published: the bound holds again and no in-flight slots linger.
  stats = cache.stats();
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_EQ(stats.builds, 2u + kBuilders);

  // The evicted warm entries rebuild on the next lookup (they were dropped,
  // not corrupted).
  bool built = false;
  (void)cache.lookup_or_build(warm_a, options, &built);
  EXPECT_TRUE(built);
}

/// When older in-flight builds occupy the whole capacity, a freshly
/// published model must not evict *itself* to honour the bound — it is
/// pinned, the bound stays transiently exceeded, and the model is reusable.
TEST(ModelCache, PublishingUnderFullInFlightResidencyKeepsTheNewModel) {
  ModelCache cache(1);
  const SynthesisOptions options;
  const Stg stg = stg::make_paper_fig1();

  std::latch started(1);
  std::latch release(1);
  std::thread holder([&] {
    (void)cache.lookup_or_build_keyed("held-key", [&] {
      started.count_down();
      release.wait();
      return SemanticModel::build(stg, options);
    });
  });
  started.wait();  // the in-flight slot now occupies the whole capacity

  bool built = false;
  (void)cache.lookup_or_build(stg, options, &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(cache.size(), 2u);  // transiently over: pinned publish + in-flight

  // The published model survived its own publish-time eviction pass.
  (void)cache.lookup_or_build(stg, options, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(cache.stats().hits, 1u);

  release.count_down();
  holder.join();
  EXPECT_LE(cache.size(), 2u);
  EXPECT_EQ(cache.stats().in_flight, 0u);
}

TEST(ModelCache, FailedBuildPropagatesAndIsNotCached) {
  ModelCache cache;
  const Stg bad = dummy_stg();
  const SynthesisOptions options;
  EXPECT_THROW((void)cache.lookup_or_build(bad, options), ImplementabilityError);
  // The failure is not cached: the slot is gone and a retry fails afresh
  // (were the STG repaired in the meantime, the retry would succeed).
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_THROW((void)cache.lookup_or_build(bad, options), ImplementabilityError);
  const ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.failed_builds, 2u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(ModelCache, ClearDropsCompletedEntries) {
  ModelCache cache;
  const SynthesisOptions options;
  (void)cache.lookup_or_build(stg::make_paper_fig1(), options);
  (void)cache.lookup_or_build(stg::make_muller_pipeline(2), options);
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  bool built = false;
  (void)cache.lookup_or_build(stg::make_paper_fig1(), options, &built);
  EXPECT_TRUE(built);
}

/// The acceptance criterion of the cache: synthesis output is byte-identical
/// with and without it, across the whole Table-1 registry.
TEST(ModelCachePipeline, CacheOnMatchesCacheOffAcrossTheRegistry) {
  const auto& registry = benchmarks::table1();
  std::vector<Stg> stgs;
  for (const auto& bench : registry) stgs.push_back(bench.make());

  ModelCache cache;
  BatchOptions with_cache;
  with_cache.jobs = 4;
  with_cache.cache = &cache;
  BatchOptions without_cache;
  without_cache.jobs = 4;

  const BatchResult cached = synthesize_batch(stgs, with_cache);
  const BatchResult fresh = synthesize_batch(stgs, without_cache);
  // A second cached sweep is served entirely from the cache and must still
  // match (the reuse pattern of `punt check` and of a warm `punt serve`).
  const BatchResult cached_again = synthesize_batch(stgs, with_cache);
  EXPECT_EQ(cache.stats().misses, registry.size());
  EXPECT_EQ(cache.stats().hits, registry.size());

  ASSERT_EQ(cached.entries.size(), fresh.entries.size());
  for (std::size_t i = 0; i < cached.entries.size(); ++i) {
    ASSERT_TRUE(cached.entries[i].ok) << registry[i].name << ": "
                                      << cached.entries[i].error;
    ASSERT_TRUE(fresh.entries[i].ok) << registry[i].name;
    const auto& a = cached.entries[i].result.signals;
    const auto& b = fresh.entries[i].result.signals;
    const auto& c = cached_again.entries[i].result.signals;
    ASSERT_EQ(a.size(), b.size()) << registry[i].name;
    ASSERT_EQ(a.size(), c.size()) << registry[i].name;
    for (std::size_t s = 0; s < a.size(); ++s) {
      EXPECT_TRUE(a[s].same_logic(b[s]))
          << registry[i].name << " signal " << a[s].name << " (cache on vs off)";
      EXPECT_TRUE(a[s].same_logic(c[s]))
          << registry[i].name << " signal " << a[s].name << " (first vs second hit)";
    }
    EXPECT_EQ(cached.entries[i].result.literal_count(),
              fresh.entries[i].result.literal_count())
        << registry[i].name;
  }
}

/// Two batch entries racing on the same STG build exactly one model.  This
/// is the concurrency contract of lookup_or_build; the test runs under
/// -fsanitize=thread in CI's thread-sanitizer job.
TEST(ModelCachePipeline, RacingBatchEntriesBuildExactlyOneModel) {
  const Stg stg = stg::make_muller_pipeline(4);
  std::vector<Stg> stgs(4, stg);

  ModelCache cache;
  BatchOptions options;
  options.jobs = 4;  // all entries in flight at once
  options.cache = &cache;
  const BatchResult batch = synthesize_batch(stgs, options);

  const ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);  // one entry won the build...
  EXPECT_EQ(stats.hits, 3u);    // ...the others joined it
  EXPECT_EQ(cache.size(), 1u);

  ASSERT_TRUE(batch.entries[0].ok) << batch.entries[0].error;
  for (std::size_t i = 1; i < batch.entries.size(); ++i) {
    ASSERT_TRUE(batch.entries[i].ok) << batch.entries[i].error;
    const auto& a = batch.entries[0].result.signals;
    const auto& b = batch.entries[i].result.signals;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
      EXPECT_TRUE(a[s].same_logic(b[s])) << "entry " << i << " signal " << a[s].name;
    }
  }
}

TEST(ModelCachePipeline, ConcurrentLookupsReturnOnePointer) {
  const Stg stg = stg::make_vme_bus();
  ModelCache cache;
  const SynthesisOptions options;

  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const SemanticModel>> models(kThreads);
  std::atomic<std::size_t> builders{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        bool built = false;
        models[t] = cache.lookup_or_build(stg, options, &built);
        if (built) builders.fetch_add(1);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(builders.load(), 1u);
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(models[0].get(), models[t].get()) << "thread " << t;
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, kThreads - 1);
}

/// A cached model outlives the STG it was built from (it owns a copy), so
/// synthesis through a long-lived cache cannot dangle.
TEST(ModelCachePipeline, CachedModelOutlivesTheSourceStg) {
  ModelCache cache;
  SynthesisOptions options;
  {
    const Stg temporary = stg::make_paper_fig1();
    (void)cache.lookup_or_build(temporary, options);
  }  // the source STG is gone; the cache still serves its model
  const Stg same_again = stg::make_paper_fig1();
  const SynthesisResult cached = synthesize(same_again, options, &cache);
  EXPECT_EQ(cache.stats().hits, 1u);
  const SynthesisResult fresh = synthesize(same_again, options);
  ASSERT_EQ(cached.signals.size(), fresh.signals.size());
  for (std::size_t s = 0; s < cached.signals.size(); ++s) {
    EXPECT_TRUE(cached.signals[s].same_logic(fresh.signals[s]));
  }
}

}  // namespace
}  // namespace punt::core

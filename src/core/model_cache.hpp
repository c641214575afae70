// ModelCache — shared semantic models across synthesis runs (DESIGN.md §8).
//
// Phase 1 (unfolding-segment or state-graph construction) dominates the
// per-benchmark cost, yet repeated workloads — `punt check`, the
// exact-vs-approx ablation, the A4 architecture sweep — rebuild the same
// model three or more times per STG.  The cache maps
//
//   (canonical STG digest, model kind, model-affecting options)
//     → shared immutable SemanticModel
//
// with thread-safe lookup-or-build semantics: concurrent callers racing on
// one key build the model exactly once (the losers wait on the winner's
// future), and an LRU bound keeps residency predictable on long sweeps.
//
// The cache lives in one process.  `punt serve` keeps one resident, which
// is how models stay warm across requests; nothing is kept on disk.
//
// Keying.  The digest is the canonical `.g` serialisation of the STG
// (stg::write_g, which pins the initial code) concatenated with
// ModelOptions::fingerprint().  Entries are compared by the *full* key
// text, with hashing only used for bucketing, so a hash collision can never
// alias two different models.  Two structurally different but isomorphic
// STGs hash apart — the cache trades such misses for exactness.
//
// Sharing.  Values are `shared_ptr<const SemanticModel>`; eviction merely
// drops the cache's reference, so models handed out earlier stay valid for
// as long as any synthesis run still reads them.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/core/pipeline.hpp"

namespace punt::core {

/// Lookup statistics, folded into the timing reports of the benches.
/// Mostly monotonic counters; `in_flight` and `resident` are gauges
/// snapshotted when stats() is called.
struct ModelCacheStats {
  /// Lookups served without building: completed-entry hits plus successful
  /// joins of an in-flight build (a join that ends in a build failure is
  /// counted by the builder's failed_builds, not as a hit).
  std::size_t hits = 0;
  std::size_t misses = 0;         // lookups that found no slot
  std::size_t builds = 0;         // models actually constructed; phase-1 rebuilds
  std::size_t evictions = 0;      // completed entries dropped by the LRU bound
  std::size_t failed_builds = 0;  // builds that threw (slot removed, retried)
  std::size_t in_flight = 0;      // gauge: builds running right now
  std::size_t resident = 0;       // gauge: slots held (ready + in-flight)
  /// Sum of build_seconds over completed-entry hits: the wall-clock model
  /// construction the cache saved its callers.  Joins of an in-flight build
  /// are not credited — the joiner waits the build out rather than skips it.
  double saved_seconds = 0;

  /// hits / (hits + misses); 0 when the cache was never consulted.
  double hit_rate() const {
    const std::size_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// Counter difference `after - before` (gauges are taken from `after`): the
/// per-request view the serve daemon reports for one request against its
/// long-lived resident cache.  Concurrent requests can inflate each other's
/// deltas — the counters are cache-wide — so the line is attribution for a
/// human, not an exact per-request ledger.
ModelCacheStats delta_stats(const ModelCacheStats& before, const ModelCacheStats& after);

/// The one-line human summary ("model cache: N lookup(s): ...\n") appended
/// to the daemon's per-request log (a `--connect` client prints it to
/// stderr) and printed by `punt serve` when it drains.  One definition so
/// the acceptance grep ("0 rebuild(s)") matches both surfaces.
std::string summarize(const ModelCacheStats& stats);

/// Hash-keyed, LRU-bounded, thread-safe cache of semantic models.
class ModelCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 128;

  /// Builds the model for a key the cache has never seen (or lost).  The
  /// stg-based lookup_or_build passes SemanticModel::build; tests inject
  /// blocking builders to pin in-flight slots.
  using Builder = std::function<std::shared_ptr<const SemanticModel>()>;

  /// `capacity`: maximum number of slots resident in memory (≥ 1).  Both
  /// completed models and in-flight builds count — N concurrent distinct-key
  /// builds occupy N slots — but only completed entries can be *evicted*, so
  /// residency exceeds the bound transiently while more than `capacity`
  /// builds are genuinely running at once.
  explicit ModelCache(std::size_t capacity = kDefaultCapacity);

  ModelCache(const ModelCache&) = delete;
  ModelCache& operator=(const ModelCache&) = delete;

  /// Returns the cached model for (stg, model-affecting options), building
  /// it on a miss.  Concurrent callers with the same key build exactly one
  /// model: the first becomes the builder, the rest wait for its result.
  /// A build failure propagates to the builder *and* every waiter, and the
  /// slot is removed so later lookups retry rather than cache the error.
  /// When `built` is given it is set to true iff *this* call constructed
  /// the model (false on hits).
  std::shared_ptr<const SemanticModel> lookup_or_build(const stg::Stg& stg,
                                                       const SynthesisOptions& options,
                                                       bool* built = nullptr);

  /// The underlying lookup: same semantics, but the caller supplies the key
  /// and the builder.
  std::shared_ptr<const SemanticModel> lookup_or_build_keyed(const std::string& key,
                                                             const Builder& build,
                                                             bool* built = nullptr);

  ModelCacheStats stats() const;
  std::size_t size() const;  // resident slots: completed + in-flight
  std::size_t capacity() const { return capacity_; }
  void clear();

  /// The exact cache key: canonical `.g` text + model-options fingerprint.
  /// Exposed so tests (and diagnostics) can reason about key equality.
  static std::string key_of(const stg::Stg& stg, const SynthesisOptions& options);

 private:
  using ModelFuture = std::shared_future<std::shared_ptr<const SemanticModel>>;

  struct Slot {
    ModelFuture future;
    bool ready = false;                   // value set, entry in lru_
    std::list<std::string>::iterator lru; // valid only when ready
  };

  /// Drops LRU-tail completed entries while total residency (completed +
  /// in-flight) exceeds capacity; never evicts `protect` (the key being
  /// published).  Caller holds mutex_.
  void evict_to_capacity_locked(const std::string* protect = nullptr);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::unordered_map<std::string, Slot> slots_;
  std::list<std::string> lru_;  // most recently used first; completed only
  ModelCacheStats stats_;
};

}  // namespace punt::core

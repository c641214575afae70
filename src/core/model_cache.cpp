#include "src/core/model_cache.hpp"

#include <utility>

#include "src/stg/g_format.hpp"
#include "src/util/strings.hpp"

namespace punt::core {

ModelCacheStats delta_stats(const ModelCacheStats& before, const ModelCacheStats& after) {
  ModelCacheStats delta;
  delta.hits = after.hits - before.hits;
  delta.misses = after.misses - before.misses;
  delta.builds = after.builds - before.builds;
  delta.evictions = after.evictions - before.evictions;
  delta.failed_builds = after.failed_builds - before.failed_builds;
  delta.saved_seconds = after.saved_seconds - before.saved_seconds;
  delta.in_flight = after.in_flight;  // gauges: a difference is meaningless
  delta.resident = after.resident;
  return delta;
}

std::string summarize(const ModelCacheStats& s) {
  const std::string failed =
      s.failed_builds == 0 ? std::string()
                           : " (" + std::to_string(s.failed_builds) + " failed)";
  return printf_string("model cache: %zu lookup(s): %zu memory hit(s), %zu rebuild(s)%s; "
                       "saved %.3fs\n",
                       s.hits + s.misses, s.hits, s.builds, failed.c_str(), s.saved_seconds);
}

ModelCache::ModelCache(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

std::string ModelCache::key_of(const stg::Stg& stg, const SynthesisOptions& options) {
  // write_g pins .init_values, so the text is a complete, canonical digest of
  // the model's input; '\x1f' (unit separator) cannot occur in `.g` text and
  // keeps the two key parts from bleeding into each other.
  return stg::write_g(stg) + '\x1f' + ModelOptions::from(options).fingerprint();
}

std::shared_ptr<const SemanticModel> ModelCache::lookup_or_build(
    const stg::Stg& stg, const SynthesisOptions& options, bool* built) {
  return lookup_or_build_keyed(
      key_of(stg, options), [&] { return SemanticModel::build(stg, options); }, built);
}

void ModelCache::evict_to_capacity_locked(const std::string* protect) {
  // Residency counts in-flight builds too (they hold memory just as
  // completed models do), but only completed entries can be evicted: a
  // build in flight has waiters holding its future.  With more than
  // `capacity` builds running at once the bound is therefore exceeded
  // transiently — and truthfully reported via size() / stats().  `protect`
  // pins a just-published key: when older in-flight slots occupy the whole
  // capacity, the freshly completed model must not be the victim — evicting
  // it would make the cache refuse to retain anything under sustained
  // over-capacity concurrency.
  while (slots_.size() > capacity_ && !lru_.empty()) {
    if (protect != nullptr && lru_.back() == *protect) break;
    slots_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::shared_ptr<const SemanticModel> ModelCache::lookup_or_build_keyed(
    const std::string& key, const Builder& build, bool* built) {
  if (built != nullptr) *built = false;

  std::promise<std::shared_ptr<const SemanticModel>> promise;
  ModelFuture pending;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slots_.find(key);
    if (it != slots_.end()) {
      if (it->second.ready) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru);  // touch
        std::shared_ptr<const SemanticModel> model = it->second.future.get();
        stats_.saved_seconds += model->build_seconds;
        return model;
      }
      // In flight: someone else is building this model right now.  Joining
      // counts as a hit only once the build succeeds (the model is not
      // built a second time), and does not credit saved_seconds — the
      // joiner waits out the whole build rather than skipping it.
      pending = it->second.future;
    } else {
      ++stats_.misses;
      builder = true;
      Slot slot;
      slot.future = promise.get_future().share();
      slot.lru = lru_.end();
      slots_.emplace(key, std::move(slot));
      // The new in-flight slot occupies residency now, so make room now —
      // waiting for publish would let N concurrent distinct-key builds grow
      // the map unboundedly past the capacity the caller configured.
      evict_to_capacity_locked();
    }
  }

  if (!builder) {
    // Blocks until the builder finishes; rethrows its exception on failure
    // (a failed join is counted by the builder's failed_builds, not here).
    std::shared_ptr<const SemanticModel> model = pending.get();
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return model;
  }

  // Build outside the lock: model construction is the expensive part and
  // other keys must stay usable meanwhile.
  if (built != nullptr) *built = true;
  std::shared_ptr<const SemanticModel> model;
  try {
    model = build();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.failed_builds;
      slots_.erase(key);  // later lookups retry instead of caching the error
    }
    promise.set_exception(std::current_exception());
    throw;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.builds;
    Slot& slot = slots_[key];
    lru_.push_front(key);
    slot.lru = lru_.begin();
    slot.ready = true;
    evict_to_capacity_locked(&key);
  }
  promise.set_value(model);
  return model;
}

ModelCacheStats ModelCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ModelCacheStats stats = stats_;
  stats.resident = slots_.size();
  stats.in_flight = slots_.size() - lru_.size();
  return stats;
}

std::size_t ModelCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

void ModelCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  // In-flight builds are kept: their builders still hold promises into the
  // map and waiters hold their futures; only completed entries are dropped.
  for (auto it = slots_.begin(); it != slots_.end();) {
    it = it->second.ready ? slots_.erase(it) : std::next(it);
  }
  lru_.clear();
}

}  // namespace punt::core

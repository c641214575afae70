// Micro-batched request fusion for `punt serve` (DESIGN.md §9).
//
// Without fusion the daemon runs every synth request as a one-entry batch:
// N clients arriving together get N separate task graphs whose nodes merely
// interleave on the shared pool, so none of the union-graph scheduling that
// makes `punt bench run` fast (distinct-keys-first model builds, in-batch
// dedup, cross-entry critical-path shortening) ever applies to served
// traffic.  The Batcher closes that gap: connection handlers stop executing
// synthesis inline and instead submit() a prepared job onto a bounded
// admission queue, blocking on a per-item response channel; one dispatcher
// thread drains whatever accumulated within the batching window and runs it
// as ONE core::synthesize_batch union graph over the resident cache and
// executor, then routes each rendered response back to its waiting handler.
//
// Admission control instead of unbounded buffering: a queue-depth bound and
// a per-connection in-flight cap, each refusing excess work with an explicit
// ok=false "overloaded: ..." response (which, per the protocol contract,
// also closes that connection).  Graceful drain still completes every
// admitted item: begin_drain() makes the dispatcher skip the accumulation
// window so queued work flushes immediately, and drain() joins it only after
// the queue is empty.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/server/protocol.hpp"
#include "src/server/service.hpp"

namespace punt::core {
class Executor;
class ModelCache;
}  // namespace punt::core

namespace punt::server {

struct BatcherOptions {
  /// Accumulation window measured from the first item of a forming batch.
  /// 0 = dispatch as soon as the dispatcher wakes (still fuses whatever
  /// already queued while a previous batch executed).
  double window_seconds = 0.002;
  /// Admission bound: submit() sheds when this many items are queued.
  std::size_t max_queue = 256;
  /// Per-connection in-flight cap.  The stock client is strictly
  /// request/response so it never holds more than one; a cap > 1 leaves
  /// room for future pipelining clients without letting one connection
  /// monopolise the queue.
  std::size_t max_per_connection = 8;
};

/// Monotonic fusion counters, self-consistent under one snapshot (copied out
/// under the Batcher's lock).  Exposed through `punt cache stats --connect`
/// so operators can see whether fusion is happening at all.
struct BatcherStats {
  /// batch_size_histogram[i] counts batches that fused i+1 requests; the
  /// last bucket also collects anything larger.
  static constexpr std::size_t kHistogramBuckets = 16;

  std::size_t admitted = 0;             // items accepted onto the queue
  std::size_t shed_queue_full = 0;      // refusals: queue depth bound
  std::size_t shed_connection_cap = 0;  // refusals: per-connection cap
  std::size_t batches = 0;              // union graphs dispatched
  std::size_t fused_requests = 0;       // items across all batches
  std::size_t max_batch = 0;            // largest batch so far
  std::size_t queue_high_water = 0;     // deepest the queue has been
  std::vector<std::size_t> batch_size_histogram =
      std::vector<std::size_t>(kHistogramBuckets, 0);

  double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(fused_requests) /
                              static_cast<double>(batches);
  }
  std::size_t shed() const { return shed_queue_full + shed_connection_cap; }
};

class Batcher {
 public:
  /// `cache` (nullable) and `executor` are the daemon's residents; not
  /// owned, must outlive the Batcher.  Starts the dispatcher thread.
  Batcher(BatcherOptions options, core::ModelCache* cache, core::Executor* executor);
  ~Batcher();  // drain()s

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Enqueues one prepared job and BLOCKS the calling connection handler
  /// until its response is ready — the handler thread is the natural
  /// per-request wait context, exactly as when it executed inline.  Returns
  /// immediately (without admission) for jobs whose prepare failed, for
  /// shed work (ok=false, error starting "overloaded: ...") and after
  /// drain() (ok=false shutdown refusal).  `connection` scopes the
  /// in-flight cap; handlers pass their connection id.
  Response submit(SynthJob job, std::uint64_t connection);

  /// Flush mode for the shutdown drain: the dispatcher stops honouring the
  /// accumulation window so admitted work completes as fast as it can.
  /// submit() still admits — handlers are joined after this, and their
  /// in-flight requests must finish normally.
  void begin_drain();

  /// Completes every queued item, then stops and joins the dispatcher.
  /// Call only once no submitter can still be running (the server joins its
  /// connection handlers first); submit() after drain() is refused, not
  /// queued.  Idempotent.
  void drain();

  BatcherStats stats() const;
  /// Items currently queued (excludes a batch already handed to the
  /// dispatcher).  Tests use this to sequence admissions deterministically.
  std::size_t queued() const;

 private:
  struct Item;

  void dispatch_loop();
  void run_batch(std::vector<std::unique_ptr<Item>>& batch);

  BatcherOptions options_;
  core::ModelCache* cache_ = nullptr;
  core::Executor* executor_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::unique_ptr<Item>> queue_;
  std::unordered_map<std::uint64_t, std::size_t> in_flight_;  // per connection
  BatcherStats stats_;
  bool draining_ = false;
  bool stopped_ = false;
  std::thread dispatcher_;
};

}  // namespace punt::server

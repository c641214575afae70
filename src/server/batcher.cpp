#include "src/server/batcher.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <span>
#include <utility>

#include "src/core/model_cache.hpp"
#include "src/core/pipeline.hpp"
#include "src/util/strings.hpp"

namespace punt::server {

using punt::printf_string;

/// One admitted request: the prepared job plus the channel its connection
/// handler blocks on.  Heap-allocated (unique_ptr in the queue) so the
/// promise never moves while a handler holds its future.
struct Batcher::Item {
  SynthJob job;
  std::uint64_t connection = 0;
  std::promise<Response> promise;
};

Batcher::Batcher(BatcherOptions options, core::ModelCache* cache, core::Executor* executor)
    : options_(options), cache_(cache), executor_(executor) {
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

Batcher::~Batcher() { drain(); }

Response Batcher::submit(SynthJob job, std::uint64_t connection) {
  if (!job.ok) return job.failure;  // parse failure: answered, never admitted
  std::future<Response> future;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) {
      Response refusal;
      refusal.error = "the server is shutting down";
      return refusal;
    }
    if (queue_.size() >= options_.max_queue) {
      ++stats_.shed_queue_full;
      Response refusal;
      refusal.error = printf_string(
          "overloaded: the admission queue is full (%zu item(s) queued); "
          "retry later, or serve with a larger --max-queue",
          queue_.size());
      return refusal;
    }
    std::size_t& in_flight = in_flight_[connection];
    if (in_flight >= options_.max_per_connection) {
      ++stats_.shed_connection_cap;
      Response refusal;
      refusal.error = printf_string(
          "overloaded: this connection already has %zu request(s) in flight",
          in_flight);
      return refusal;
    }
    ++in_flight;
    ++stats_.admitted;
    auto item = std::make_unique<Item>();
    item->job = std::move(job);
    item->connection = connection;
    future = item->promise.get_future();
    queue_.push_back(std::move(item));
    stats_.queue_high_water = std::max(stats_.queue_high_water, queue_.size());
  }
  wake_.notify_all();
  return future.get();
}

void Batcher::begin_drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
  wake_.notify_all();
}

void Batcher::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    stopped_ = true;
    wake_.notify_all();
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  // Defensive: the dispatcher only exits on an empty queue, so nothing
  // should remain — but a promise must never die unfulfilled, so answer any
  // straggler rather than hang its handler.
  std::deque<std::unique_ptr<Item>> leftovers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    leftovers.swap(queue_);
  }
  for (auto& item : leftovers) {
    Response refusal;
    refusal.error = "the server is shutting down";
    item->promise.set_value(std::move(refusal));
  }
}

BatcherStats Batcher::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t Batcher::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void Batcher::dispatch_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    wake_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopped_) return;
      continue;
    }
    if (options_.window_seconds > 0 && !draining_ && !stopped_) {
      // Accumulate: the window runs from the batch's first item.  Every
      // submit notifies, so keep waiting until the deadline passes (or a
      // drain begins) — arrivals during an *executing* batch pile up for
      // the next one without any window at all.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(options_.window_seconds));
      while (!draining_ && !stopped_ &&
             wake_.wait_until(lock, deadline) != std::cv_status::timeout) {
      }
    }
    std::vector<std::unique_ptr<Item>> batch;
    batch.reserve(queue_.size());
    while (!queue_.empty()) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    // Record the batch before executing it, so a client whose response just
    // arrived already sees it in the counters (tests rely on that order).
    ++stats_.batches;
    stats_.fused_requests += batch.size();
    stats_.max_batch = std::max(stats_.max_batch, batch.size());
    ++stats_.batch_size_histogram[std::min(
        batch.size(), BatcherStats::kHistogramBuckets) - 1];
    lock.unlock();
    run_batch(batch);
    lock.lock();
    for (const auto& item : batch) {
      const auto it = in_flight_.find(item->connection);
      if (it != in_flight_.end() && --it->second == 0) in_flight_.erase(it);
    }
  }
}

void Batcher::run_batch(std::vector<std::unique_ptr<Item>>& batch) {
  std::vector<core::BatchRequest> requests;
  requests.reserve(batch.size());
  for (const auto& item : batch) {
    requests.push_back(core::BatchRequest{&item->job.stg, item->job.options});
  }
  const core::ModelCacheStats before =
      cache_ != nullptr ? cache_->stats() : core::ModelCacheStats{};
  core::BatchOptions options;
  options.jobs = 1;  // executor (when given) supersedes this
  options.cache = cache_;
  options.executor = executor_;
  core::BatchResult result;
  std::string batch_error;
  try {
    result = core::synthesize_batch(std::span<const core::BatchRequest>(requests),
                                    options);
  } catch (const std::exception& e) {
    // synthesize_batch captures per-entry failures itself; only an
    // infrastructure fault lands here.  Refuse (protocol-level) rather than
    // fabricate synthesis output.
    batch_error = e.what();
  }
  std::string summary;
  if (cache_ != nullptr && batch_error.empty()) {
    summary = core::summarize(core::delta_stats(before, cache_->stats()));
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Response response;
    if (!batch_error.empty()) {
      response.error = "serve: batch execution failed: " + batch_error;
    } else {
      response = render_synth(batch[i]->job, result.entries[i]);
      // One delta for the whole fused batch: every member reports the union
      // graph's cache traffic.  A batch of one degenerates to exactly the
      // old inline per-request summary.
      response.log += summary;
    }
    batch[i]->promise.set_value(std::move(response));
  }
}

}  // namespace punt::server

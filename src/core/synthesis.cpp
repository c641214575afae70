#include "src/core/synthesis.hpp"

#include <span>
#include <utility>

#include "src/core/pipeline.hpp"
#include "src/util/error.hpp"

namespace punt::core {

std::size_t SignalImplementation::literal_count(Architecture arch) const {
  if (arch == Architecture::ComplexGate) return gate.literal_count();
  return set_function.literal_count() + reset_function.literal_count();
}

bool SignalImplementation::same_logic(const SignalImplementation& other) const {
  return signal == other.signal && name == other.name &&
         on_cover == other.on_cover && off_cover == other.off_cover &&
         gate == other.gate && gate_covers_on == other.gate_covers_on &&
         set_function == other.set_function &&
         reset_function == other.reset_function &&
         used_exact_fallback == other.used_exact_fallback &&
         csc_conflict == other.csc_conflict;
}

std::size_t SynthesisResult::literal_count() const {
  std::size_t n = 0;
  for (const SignalImplementation& impl : signals) n += impl.literal_count(architecture);
  return n;
}

void SynthesisResult::rebuild_signal_index() {
  signal_index_.clear();
  signal_index_.reserve(signals.size());
  for (std::size_t i = 0; i < signals.size(); ++i) {
    signal_index_.emplace(signals[i].signal.value, i);
  }
}

const SignalImplementation& SynthesisResult::implementation(stg::SignalId signal) const {
  const auto it = signal_index_.find(signal.value);
  if (it != signal_index_.end() && it->second < signals.size() &&
      signals[it->second].signal == signal) {
    return signals[it->second];
  }
  // Stale or absent index (a hand-edited result that skipped
  // rebuild_signal_index()): fall back to the linear scan rather than give
  // a wrong hit or a wrong miss.
  for (const SignalImplementation& impl : signals) {
    if (impl.signal == signal) return impl;
  }
  std::string known;
  for (const SignalImplementation& impl : signals) {
    if (!known.empty()) known += ", ";
    known += impl.name.empty() ? "#" + std::to_string(impl.signal.index()) : impl.name;
  }
  throw ValidationError(
      "no implementation for signal #" + std::to_string(signal.index()) +
      " (is it an input?); implementations exist for: " +
      (known.empty() ? "none" : known));
}

SynthesisResult synthesize(const stg::Stg& stg, const SynthesisOptions& options,
                           ModelCache* cache, util::TaskTrace* trace) {
  // A one-entry batch: the same graph emission and executor as
  // synthesize_batch, with the per-signal derive/minimize nodes spread over
  // options.jobs workers.  The entry's failure — captured as the
  // lowest-index failing node's exception — is rethrown with its original
  // type, so callers observe exactly what the sequential loop would throw.
  BatchOptions batch_options;
  batch_options.synthesis = options;
  batch_options.jobs = options.jobs;
  batch_options.cache = cache;
  batch_options.trace = trace;
  BatchResult batch = synthesize_batch(std::span<const stg::Stg>(&stg, 1), batch_options);
  BatchEntry& entry = batch.entries.front();
  if (!entry.ok) {
    if (entry.exception) std::rethrow_exception(entry.exception);
    throw ValidationError(entry.error);
  }
  return std::move(entry.result);
}

}  // namespace punt::core

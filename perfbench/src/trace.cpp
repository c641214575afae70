#include "trace.hpp"

#include <algorithm>
#include <numeric>
#include <cstdio>
#include <fstream>
#include <utility>

#include "checks.hpp"
#include "src/core/approx.hpp"
#include "src/netlist/netlist.hpp"
#include "src/util/json.hpp"

namespace perfbench {

using punt::core::DeriveTask;
using punt::core::Method;
using punt::core::MinimizeTask;
using punt::core::PipelineContext;
using punt::core::SemanticModel;
using punt::core::SynthesisResult;

std::size_t SpanRecorder::open(std::string name, std::string detail, std::size_t parent) {
  spans_.push_back({std::move(name), std::move(detail), parent, since(origin_), 0});
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t id) { spans_[id].end = since(origin_); }

double SpanRecorder::total(std::string_view name) const {
  double seconds = 0;
  for (const Span& span : spans_) {
    if (span.name == name) seconds += span.seconds();
  }
  return seconds;
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f", span.start * 1e6,
                  span.seconds() * 1e6);
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << punt::util::json_escape(span.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << times << ",\"args\":{\"id\":" << i
        << ",\"parent\":"
        << (span.parent == Span::kNoParent ? std::string("null") : std::to_string(span.parent))
        << ",\"detail\":\"" << punt::util::json_escape(span.detail) << "\"}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

TracedPass traced_pass(std::span<const TracedItem> items, SpanRecorder& spans) {
  TracedPass pass;
  pass.pass_span = spans.open("pass", "");
  for (const TracedItem& item : items) {
    const punt::stg::Stg& stg = *item.stg;
    const std::string& name = item.name;
    const std::size_t spec_span = spans.open("spec", name, pass.pass_span);

    std::shared_ptr<const SemanticModel> model;
    std::size_t model_span = 0;
    {
      const bool sg = item.options.method == Method::StateGraph;
      const ScopedSpan span(spans, sg ? "sg.build" : "unfolding.build", name, spec_span);
      model_span = span.id();
      model = SemanticModel::build(stg, item.options);
    }
    pass.layer_seconds += spans.spans()[model_span].seconds();
    PipelineContext context;
    context.model = model;
    context.options = item.options;
    context.model_seconds = model->build_seconds;

    const auto& targets = model->targets;
    std::vector<DeriveTask> derive(targets.size());
    std::vector<MinimizeTask> minimize(targets.size());
    double derive_seconds = 0, minimize_seconds = 0;
    for (std::size_t k = 0; k < targets.size(); ++k) {
      derive[k].signal = targets[k];
      const std::string detail = name + "/" + stg.signal_name(targets[k]);
      std::size_t derive_span = 0, minimize_span = 0;
      {
        const ScopedSpan span(spans, "core.derive", detail, spec_span);
        derive_span = span.id();
        derive[k].run(context);
      }
      {
        const ScopedSpan span(spans, "logic.minimize", detail, spec_span);
        minimize_span = span.id();
        minimize[k].run(context, derive[k]);
      }
      derive_seconds += spans.spans()[derive_span].seconds();
      minimize_seconds += spans.spans()[minimize_span].seconds();
    }

    // The pipeline's assembly node, field by field.
    SynthesisResult result;
    result.method = item.options.method;
    result.architecture = item.options.architecture;
    result.unfold_seconds = model->build_seconds;
    result.unfold_stats = model->unfold_stats;
    result.sg_states = model->sg_states;
    std::vector<std::size_t> iterations;
    iterations.reserve(targets.size());
    result.signals.reserve(targets.size());
    for (std::size_t k = 0; k < targets.size(); ++k) {
      result.refinement_iterations += derive[k].refinement_iterations;
      result.exact_fallbacks += derive[k].exact_fallbacks;
      result.derive_seconds += derive[k].derive_seconds;
      result.minimize_seconds += minimize[k].minimize_seconds;
      iterations.push_back(derive[k].refinement_iterations);
      result.signals.push_back(std::move(derive[k].impl));
    }
    result.rebuild_signal_index();
    result.total_seconds = model->build_seconds + result.derive_seconds + result.minimize_seconds;

    pass.results.push_back(std::move(result));
    pass.models.push_back(std::move(model));
    pass.refine_iterations.push_back(std::move(iterations));
    pass.derive_seconds.push_back(derive_seconds);
    pass.minimize_seconds.push_back(minimize_seconds);
    pass.layer_seconds += derive_seconds + minimize_seconds;
    spans.close(spec_span);
  }
  spans.close(pass.pass_span);
  pass.wall = spans.spans()[pass.pass_span].seconds();
  return pass;
}

std::vector<std::string> recheck_approximation(std::span<const TracedItem> items,
                                               const TracedPass& pass, SpanRecorder& spans) {
  std::vector<std::string> problems;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const TracedItem& item = items[i];
    if (item.options.method != Method::UnfoldingApprox) continue;
    const punt::stg::Stg& stg = *item.stg;
    const punt::unf::Unfolding& unf = *pass.models[i]->unfolding;
    const std::size_t n = stg.signal_count();
    const SynthesisResult& result = pass.results[i];
    for (std::size_t k = 0; k < result.signals.size(); ++k) {
      const punt::core::SignalImplementation& impl = result.signals[k];
      const std::string detail = item.name + "/" + impl.name;
      punt::core::ApproxCover on, off;
      {
        const ScopedSpan span(spans, "core.approx", detail);
        on = punt::core::approximate_cover(unf, impl.signal, true, item.options.approx_policy);
        off = punt::core::approximate_cover(unf, impl.signal, false, item.options.approx_policy);
      }
      punt::core::RefineStats stats;
      {
        const ScopedSpan span(spans, "core.refine", detail);
        stats = punt::core::refine_until_disjoint(unf, on, off);
      }
      if (stats.iterations != pass.refine_iterations[i][k]) {
        problems.push_back(detail + ": refinement took " + std::to_string(stats.iterations) +
                           " iterations, DeriveTask " +
                           std::to_string(pass.refine_iterations[i][k]));
      } else if (stats.disjoint == impl.used_exact_fallback) {
        problems.push_back(detail + ": exact-fallback decision differs from DeriveTask's");
      } else if (stats.disjoint &&
                 (on.combined(n) != impl.on_cover || off.combined(n) != impl.off_cover)) {
        problems.push_back(detail + ": refined covers differ from DeriveTask's");
      }
    }
  }
  return problems;
}

std::vector<std::size_t> assemble_netlists(std::span<const TracedItem> items,
                                           const TracedPass& pass, SpanRecorder& spans) {
  std::vector<std::size_t> literals;
  literals.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const ScopedSpan span(spans, "netlist.assembly", items[i].name);
    literals.push_back(
        punt::net::Netlist::from_synthesis(*items[i].stg, pass.results[i]).literal_count());
  }
  return literals;
}

void traced_run(std::span<const TracedItem> items,
                std::span<const SynthesisResult* const> reference, double untraced_wall,
                SpanRecorder& spans, Report& report) {
  const TracedPass pass = traced_pass(items, spans);

  ExactCounts traced, untraced;
  std::size_t reference_literals = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const bool minimize = items[i].options.minimize;
    traced += counts_of(pass.results[i], minimize);
    untraced += counts_of(*reference[i], minimize);
    reference_literals += reference[i]->literal_count();
    ++report.attempted;
    if (!same_logic(pass.results[i], *reference[i])) {
      report.fail(items[i].name + ": traced decomposition differs from the batch pass");
    }
  }
  if (traced != untraced) {
    report.fail("traced counts " + traced.describe() + " differ from the batch pass's " +
                untraced.describe());
  }
  for (std::string& problem : recheck_approximation(items, pass, spans)) {
    report.fail(std::move(problem));
  }
  const std::vector<std::size_t> literals = assemble_netlists(items, pass, spans);
  if (std::accumulate(literals.begin(), literals.end(), std::size_t{0}) != reference_literals) {
    report.fail("netlist literal total differs from the batch pass's");
  }

  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  const auto argmax = [](const std::vector<double>& v) {
    return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) - v.begin());
  };
  const std::size_t slowest_minimize = argmax(pass.minimize_seconds);
  const std::size_t slowest_derive = argmax(pass.derive_seconds);
  report.metric("logic.minimize_s", sum(pass.minimize_seconds));
  report.metric("logic.minimize_s_max", pass.minimize_seconds[slowest_minimize]);
  report.metric("logic.espresso_calls", static_cast<double>(traced.espresso_calls));
  report.metric("logic.cubes_in", static_cast<double>(traced.cubes_in));
  report.metric("logic.cubes_out", static_cast<double>(traced.cubes_out));
  report.metric("logic.espresso_iterations", static_cast<double>(traced.espresso_iterations));
  report.metric("core.derive_s", sum(pass.derive_seconds));
  report.metric("core.derive_s_max", pass.derive_seconds[slowest_derive]);
  report.metric("core.approx_s", spans.total("core.approx"));
  report.metric("core.refine_s", spans.total("core.refine"));
  report.metric("core.refine_iterations", static_cast<double>(traced.refine_iterations));
  report.metric("core.exact_fallbacks", static_cast<double>(traced.exact_fallbacks));
  report.metric("unfolding.build_s", spans.total("unfolding.build"));
  report.metric("unfolding.events", static_cast<double>(traced.events));
  report.metric("sg.build_s", spans.total("sg.build"));
  report.metric("sg.states", static_cast<double>(traced.states));
  report.metric("netlist.assembly_s", spans.total("netlist.assembly"));
  report.metric("trace.unaccounted_frac", 1.0 - pass.layer_seconds / pass.wall);
  report.metric("trace.overhead_frac", pass.wall / untraced_wall - 1.0);

  report.note("traced_wall_s", pass.wall, "s");
  report.note("logic.minimize_share", sum(pass.minimize_seconds) / pass.wall, "frac");
  report.note("core.derive_share", sum(pass.derive_seconds) / pass.wall, "frac");
  report.remarks.push_back("logic.minimize_s_max is " + items[slowest_minimize].name);
  report.remarks.push_back("core.derive_s_max is " + items[slowest_derive].name);
}

}  // namespace perfbench

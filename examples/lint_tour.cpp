// Tour of the lint subsystem (DESIGN.md §10): run the structural rules
// over a deliberately defective spec and show the compiler-style report,
// then confirm the whole Table-1 registry lints clean — the same pass the
// serve daemon runs before admitting a request.
#include <cstdio>

#include "src/benchmarks/registry.hpp"
#include "src/lint/lint.hpp"
#include "src/lint/rules.hpp"
#include "src/stg/g_format.hpp"

int main() {
  std::printf("The rule catalog:\n");
  for (const auto& rule : punt::lint::rule_catalog()) {
    std::printf("  %s  %-7s  %s\n", rule.id,
                punt::util::severity_name(rule.severity), rule.summary);
  }

  // One spec, several defects: a duplicated declaration, a signal that only
  // rises, and an unreachable pair — all reported in a single pass, each
  // with a source span and a fix hint.
  const char* defective =
      ".model demo\n"
      ".inputs a a\n"
      ".outputs b\n"
      ".graph\n"
      "a+ p\n"
      "p b+\n"
      "b+ q\n"
      "q a+/2\n"
      ".marking { p }\n"
      ".init_values a=0 b=0\n"
      ".end\n";
  const auto report = punt::lint::lint_text(defective, "demo.g");
  std::printf("\nA defective spec:\n\n%s",
              punt::lint::render_human(report, defective).c_str());

  std::printf("\nAnd the registry:\n");
  std::size_t clean = 0;
  for (const auto& bench : punt::benchmarks::table1()) {
    const std::string text = punt::stg::write_g(bench.make());
    clean += punt::lint::lint_text(text, bench.name).diagnostics.empty() ? 1 : 0;
  }
  std::printf("  %zu/%zu Table-1 specs lint clean\n", clean,
              punt::benchmarks::table1().size());
  return 0;
}

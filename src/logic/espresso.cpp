#include "src/logic/espresso.hpp"

#include <algorithm>

#include "src/util/error.hpp"

namespace punt::logic {
namespace {

bool cube_hits_cover(const Cube& c, const Cover& cover) {
  for (const Cube& b : cover.cubes()) {
    if (c.intersects(b)) return true;
  }
  return false;
}

/// Greedily raises literals of `c` to DC while the cube stays disjoint from
/// `blocking`.  Raising order: variables whose raising frees the most cubes
/// are tried on every pass until a fixpoint.
Cube expand_cube(Cube c, const Cover& blocking) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t v = 0; v < c.size(); ++v) {
      if (c.get(v) == Lit::DC) continue;
      Cube trial = c;
      trial.set(v, Lit::DC);
      if (!cube_hits_cover(trial, blocking)) {
        c = std::move(trial);
        progress = true;
      }
    }
  }
  return c;
}

/// EXPAND phase: expand every cube against the blocking cover, then drop
/// cubes swallowed by an earlier expansion (single-cube containment).
Cover expand(const Cover& f, const Cover& blocking) {
  std::vector<Cube> cubes = f.cubes();
  // Expand the widest cubes first; they are most likely to absorb others.
  std::sort(cubes.begin(), cubes.end(), [](const Cube& a, const Cube& b) {
    return a.literal_count() < b.literal_count();
  });
  Cover out(f.variable_count());
  for (const Cube& c : cubes) {
    bool covered = false;
    for (const Cube& done : out.cubes()) {
      if (done.contains(c)) {
        covered = true;
        break;
      }
    }
    if (!covered) out.add(expand_cube(c, blocking));
  }
  out.make_irredundant_scc();
  return out;
}

/// IRREDUNDANT phase: removes cubes covered by the rest of the cover plus
/// the don't-care cover.
Cover irredundant(const Cover& f, const Cover& dc) {
  std::vector<Cube> cubes = f.cubes();
  // Try to remove small cubes first; large cubes are more likely essential.
  std::sort(cubes.begin(), cubes.end(), [](const Cube& a, const Cube& b) {
    return a.literal_count() > b.literal_count();
  });
  std::vector<bool> removed(cubes.size(), false);
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    Cover rest(f.variable_count());
    for (std::size_t j = 0; j < cubes.size(); ++j) {
      if (j != i && !removed[j]) rest.add(cubes[j]);
    }
    rest.add_all(dc);
    if (rest.contains_cube(cubes[i])) removed[i] = true;
  }
  Cover out(f.variable_count());
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    if (!removed[i]) out.add(cubes[i]);
  }
  return out;
}

/// REDUCE phase: shrinks each cube to the smallest cube still covering the
/// points only it covers (w.r.t. the rest plus DC), freeing room for a
/// different EXPAND direction.
Cover reduce(const Cover& f, const Cover& dc) {
  Cover current = f;
  std::vector<Cube> cubes = current.cubes();
  std::sort(cubes.begin(), cubes.end(), [](const Cube& a, const Cube& b) {
    return a.literal_count() < b.literal_count();
  });
  std::vector<Cube> result;
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    Cover rest(f.variable_count());
    for (std::size_t j = 0; j < cubes.size(); ++j) {
      if (j != i) rest.add(j < i ? result[j] : cubes[j]);
    }
    rest.add_all(dc);
    // Unique part of cubes[i]: complement of rest, inside cubes[i].
    const Cover unique = rest.cofactor(cubes[i]).complement();
    if (unique.empty()) {
      result.push_back(cubes[i]);  // fully redundant; leave for IRREDUNDANT
      continue;
    }
    Cube super = unique.cube(0);
    for (std::size_t k = 1; k < unique.cube_count(); ++k) {
      super = super.supercube_with(unique.cube(k));
    }
    // Pull the supercube back into the subspace of cubes[i].
    const auto reduced = super.intersect(cubes[i]);
    result.push_back(reduced ? *reduced : cubes[i]);
  }
  return Cover(f.variable_count(), std::move(result));
}

std::size_t cost(const Cover& f) { return f.literal_count() + f.cube_count(); }

/// Throws when `on` and `blocking` share a point.
void check_consistent(const Cover& on, const Cover& blocking) {
  if (on.intersects(blocking)) {
    throw ValidationError(
        "espresso: the on-set cover intersects the blocking cover; the "
        "specification of the function is contradictory");
  }
}

/// EXPAND / IRREDUNDANT / (REDUCE, EXPAND, IRREDUNDANT)* on consistent
/// inputs.
Cover minimize(const Cover& on, const Cover& blocking, const Cover& dc, MinimizeStats* stats,
               const EspressoOptions& options) {
  if (stats) {
    stats->initial_cubes = on.cube_count();
    stats->initial_literals = on.literal_count();
  }
  Cover f = expand(on, blocking);
  f = irredundant(f, dc);
  std::size_t best_cost = cost(f);
  std::size_t iterations = 0;
  for (; iterations < options.max_iterations; ++iterations) {
    Cover candidate = reduce(f, dc);
    candidate = expand(candidate, blocking);
    candidate = irredundant(candidate, dc);
    if (cost(candidate) >= best_cost) break;
    best_cost = cost(candidate);
    f = std::move(candidate);
  }
  if (stats) {
    stats->final_cubes = f.cube_count();
    stats->final_literals = f.literal_count();
    stats->iterations = iterations;
  }
  return f;
}

}  // namespace

Cover dont_care_cover(const Cover& care, bool* capped) {
  std::optional<Cover> dc = care.complement_capped(kDcComplementCap);
  if (capped) *capped = !dc.has_value();
  return dc ? std::move(*dc) : Cover(care.variable_count());
}

Cover espresso(const Cover& on, const Cover& blocking, MinimizeStats* stats,
               const EspressoOptions& options) {
  check_consistent(on, blocking);
  Cover care = on;
  care.add_all(blocking);
  bool capped = false;
  const Cover dc = dont_care_cover(care, &capped);
  if (stats) stats->dc_capped = capped ? 1 : 0;
  return minimize(on, blocking, dc, stats, options);
}

Cover espresso(const Cover& on, const Cover& blocking, const Cover& dc, MinimizeStats* stats,
               const EspressoOptions& options) {
  check_consistent(on, blocking);
  return minimize(on, blocking, dc, stats, options);
}

Cover espresso_with_dc(const Cover& on, const Cover& dc, MinimizeStats* stats,
                       const EspressoOptions& options) {
  Cover combined = on;
  combined.add_all(dc);
  return espresso(on, combined.complement(), stats, options);
}

}  // namespace punt::logic

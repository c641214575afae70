#include "src/logic/espresso.hpp"

#include <algorithm>
#include <optional>
#include <vector>

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
/// `blocking`.  Each pass tries the literals in variable-index order; passes
/// repeat until one raises nothing.
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

/// IRREDUNDANT phase: removes cubes whose on-set points the rest of the
/// cover already covers.  A cube c misses the blocking cover, so c lies in
/// rest + DC exactly when on_c ⊆ rest_c (cofactors w.r.t. c).
Cover irredundant(const Cover& f, const Cover& on) {
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
    if (rest.cofactor(cubes[i]).contains_cover(on.cofactor(cubes[i]))) removed[i] = true;
  }
  Cover out(f.variable_count());
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    if (!removed[i]) out.add(cubes[i]);
  }
  return out;
}

/// REDUCE phase: shrinks each cube to the smallest cube still covering the
/// on-set points only it covers, on_c · ¬rest_c, freeing room for a
/// different EXPAND direction.
Cover reduce(const Cover& f, const Cover& on) {
  std::vector<Cube> cubes = f.cubes();
  std::sort(cubes.begin(), cubes.end(), [](const Cube& a, const Cube& b) {
    return a.literal_count() < b.literal_count();
  });
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    // cubes[0, i) already hold their reduced forms.
    Cover rest(f.variable_count());
    for (std::size_t j = 0; j < cubes.size(); ++j) {
      if (j != i) rest.add(cubes[j]);
    }
    const Cover on_c = on.cofactor(cubes[i]);
    const Cover outside = rest.cofactor(cubes[i]).complement();
    std::optional<Cube> super;
    for (const Cube& a : on_c.cubes()) {
      for (const Cube& b : outside.cubes()) {
        if (auto unique = a.intersect(b)) super = super ? super->supercube_with(*unique) : *unique;
      }
    }
    if (!super) continue;  // fully redundant; leave for IRREDUNDANT
    // Pull the supercube back into the subspace of cubes[i].
    if (auto reduced = super->intersect(cubes[i])) cubes[i] = std::move(*reduced);
  }
  return Cover(f.variable_count(), std::move(cubes));
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

}  // namespace

Cover espresso(const Cover& on, const Cover& blocking, MinimizeStats* stats) {
  check_consistent(on, blocking);
  if (stats) {
    stats->initial_cubes = on.cube_count();
    stats->initial_literals = on.literal_count();
  }
  Cover f = irredundant(expand(on, blocking), on);
  std::size_t iterations = 0;
  while (true) {
    Cover candidate = irredundant(expand(reduce(f, on), blocking), on);
    if (cost(candidate) >= cost(f)) break;
    f = std::move(candidate);
    ++iterations;
  }
  if (stats) {
    stats->final_cubes = f.cube_count();
    stats->final_literals = f.literal_count();
    stats->iterations = iterations;
  }
  return f;
}

}  // namespace punt::logic

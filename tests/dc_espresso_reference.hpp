// The don't-care-based espresso that logic::espresso replaced, kept as a
// test reference (DESIGN.md §6).
//
// Its IRREDUNDANT and REDUCE decide against rest + DC, where the DC is the
// complement of on + blocking, computed by the list-per-node recursion below
// under a running budget of kDcCap cubes, and taken as empty past it.  Its
// refinement loop stops after five rounds.  Wherever the DC fits under the
// cap, care-set espresso must return the same cube list.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "src/logic/cover.hpp"

namespace punt::logic::reference {

/// Thrown by complement_rec when the budget runs out.
struct Overflow {};

inline std::vector<Cube> cofactor(const std::vector<Cube>& cubes, std::size_t v, Lit value) {
  std::vector<Cube> out;
  for (const Cube& c : cubes) {
    const Lit l = c.get(v);
    if (l == Lit::DC) {
      out.push_back(c);
    } else if (l == value) {
      Cube copy = c;
      copy.set(v, Lit::DC);
      out.push_back(std::move(copy));
    }
  }
  return out;
}

/// Unate-recursive complement on the most binate variable (ties by total
/// count; a unate list splits on its first tested variable), before
/// single-cube containment.  With a `budget`, every merge node spends the
/// cubes its two branches produced, and the call throws Overflow when a
/// node starts with nothing left or its branches produce at least what is
/// left.
inline std::vector<Cube> complement_rec(const std::vector<Cube>& cubes, std::size_t n,
                                        std::size_t* budget) {
  if (budget != nullptr && *budget == 0) throw Overflow{};
  if (cubes.empty()) return {Cube(n)};
  for (const Cube& c : cubes) {
    if (c.literal_count() == 0) return {};
  }
  if (cubes.size() == 1) {
    std::vector<Cube> out;
    cubes.front().for_each_literal([&](std::size_t v, Lit l) {
      Cube term(n);
      term.set(v, l == Lit::One ? Lit::Zero : Lit::One);
      out.push_back(std::move(term));
    });
    return out;
  }
  std::vector<std::size_t> ones(n, 0);
  std::vector<std::size_t> zeros(n, 0);
  for (const Cube& c : cubes) {
    c.for_each_literal([&](std::size_t v, Lit l) { ++(l == Lit::One ? ones : zeros)[v]; });
  }
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t v = npos;
  std::size_t best_min = 0;
  std::size_t best_total = 0;
  for (std::size_t u = 0; u < n; ++u) {
    if (ones[u] == 0 || zeros[u] == 0) continue;
    const std::size_t lo = std::min(ones[u], zeros[u]);
    if (v == npos || lo > best_min || (lo == best_min && ones[u] + zeros[u] > best_total)) {
      v = u;
      best_min = lo;
      best_total = ones[u] + zeros[u];
    }
  }
  for (std::size_t u = 0; v == npos && u < n; ++u) {
    if (ones[u] + zeros[u] > 0) v = u;
  }

  std::vector<Cube> out = complement_rec(cofactor(cubes, v, Lit::Zero), n, budget);
  std::vector<Cube> hi = complement_rec(cofactor(cubes, v, Lit::One), n, budget);
  if (budget != nullptr) {
    const std::size_t produced = out.size() + hi.size();
    if (produced >= *budget) throw Overflow{};
    *budget -= produced;
  }
  const std::size_t lo_count = out.size();
  for (std::size_t i = 0; i < lo_count; ++i) {
    if (std::find(hi.begin(), hi.end(), out[i]) == hi.end()) out[i].set(v, Lit::Zero);
  }
  for (Cube& c : hi) {
    const auto lo_end = out.begin() + static_cast<std::ptrdiff_t>(lo_count);
    if (std::find(out.begin(), lo_end, c) == lo_end) {
      c.set(v, Lit::One);
      out.push_back(std::move(c));
    }
  }
  return out;
}

/// The complement of `f` with single-cube containment applied, or nullopt
/// when it overflows a budget of `cap` cubes.
inline std::optional<Cover> complement(const Cover& f, std::size_t cap) {
  std::size_t budget = cap;
  try {
    Cover out(f.variable_count(), complement_rec(f.cubes(), f.variable_count(), &budget));
    out.make_irredundant_scc();
    return out;
  } catch (const Overflow&) {
    return std::nullopt;
  }
}

/// The DC cap espresso used: past it, minimisation ran with an empty DC.
constexpr std::size_t kDcCap = 200000;

inline Cube expand_cube(Cube c, const Cover& blocking) {
  for (bool progress = true; progress;) {
    progress = false;
    for (std::size_t v = 0; v < c.size(); ++v) {
      if (c.get(v) == Lit::DC) continue;
      Cube trial = c;
      trial.set(v, Lit::DC);
      if (std::none_of(blocking.cubes().begin(), blocking.cubes().end(),
                       [&](const Cube& b) { return trial.intersects(b); })) {
        c = std::move(trial);
        progress = true;
      }
    }
  }
  return c;
}

inline Cover expand(const Cover& f, const Cover& blocking) {
  std::vector<Cube> cubes = f.cubes();
  std::sort(cubes.begin(), cubes.end(), [](const Cube& a, const Cube& b) {
    return a.literal_count() < b.literal_count();
  });
  Cover out(f.variable_count());
  for (const Cube& c : cubes) {
    if (std::none_of(out.cubes().begin(), out.cubes().end(),
                     [&](const Cube& done) { return done.contains(c); })) {
      out.add(expand_cube(c, blocking));
    }
  }
  out.make_irredundant_scc();
  return out;
}

inline Cover irredundant(const Cover& f, const Cover& dc) {
  std::vector<Cube> cubes = f.cubes();
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

inline Cover reduce(const Cover& f, const Cover& dc) {
  std::vector<Cube> cubes = f.cubes();
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
    const Cover rest_c = rest.cofactor(cubes[i]);
    Cover unique(f.variable_count(), complement_rec(rest_c.cubes(), f.variable_count(), nullptr));
    unique.make_irredundant_scc();
    if (unique.empty()) {
      result.push_back(cubes[i]);
      continue;
    }
    Cube super = unique.cube(0);
    for (std::size_t k = 1; k < unique.cube_count(); ++k) {
      super = super.supercube_with(unique.cube(k));
    }
    const auto reduced = super.intersect(cubes[i]);
    result.push_back(reduced ? *reduced : cubes[i]);
  }
  return Cover(f.variable_count(), std::move(result));
}

/// The DC espresso minimised `on` against `blocking` with: the complement
/// of on + blocking, or nullopt when it passes kDcCap cubes.  It depends
/// only on the multiset of the care set's cubes.
inline std::optional<Cover> dont_care(const Cover& on, const Cover& blocking) {
  Cover care = on;
  care.add_all(blocking);
  return complement(care, kDcCap);
}

/// The DC-based minimisation of `on` against `blocking`, which must be
/// disjoint, with dc = *dont_care(on, blocking).
inline Cover espresso(const Cover& on, const Cover& blocking, const Cover& dc) {
  const auto cost = [](const Cover& f) { return f.literal_count() + f.cube_count(); };
  Cover f = irredundant(expand(on, blocking), dc);
  for (int round = 0; round < 5; ++round) {
    Cover candidate = irredundant(expand(reduce(f, dc), blocking), dc);
    if (cost(candidate) >= cost(f)) break;
    f = std::move(candidate);
  }
  return f;
}

}  // namespace punt::logic::reference

#include "src/logic/cover.hpp"

#include <algorithm>
#include <cassert>

#include "src/util/error.hpp"

namespace punt::logic {
namespace {

/// Per-variable polarity statistics across a cube list.
struct ColumnStats {
  std::vector<std::size_t> ones;
  std::vector<std::size_t> zeros;

  explicit ColumnStats(std::size_t variable_count)
      : ones(variable_count, 0), zeros(variable_count, 0) {}

  static ColumnStats of(const std::vector<Cube>& cubes, std::size_t variable_count) {
    ColumnStats stats(variable_count);
    for (const Cube& c : cubes) {
      for (std::size_t v = 0; v < variable_count; ++v) {
        if (c.get(v) == Lit::One) ++stats.ones[v];
        if (c.get(v) == Lit::Zero) ++stats.zeros[v];
      }
    }
    return stats;
  }

  /// Most binate variable (max of min(ones, zeros), ties by total count), or
  /// npos when the list is unate in every variable.
  std::size_t most_binate() const {
    std::size_t best = npos;
    std::size_t best_min = 0;
    std::size_t best_total = 0;
    for (std::size_t v = 0; v < ones.size(); ++v) {
      if (ones[v] == 0 || zeros[v] == 0) continue;
      const std::size_t lo = std::min(ones[v], zeros[v]);
      const std::size_t total = ones[v] + zeros[v];
      if (best == npos || lo > best_min || (lo == best_min && total > best_total)) {
        best = v;
        best_min = lo;
        best_total = total;
      }
    }
    return best;
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

bool has_universal_cube(const std::vector<Cube>& cubes) {
  for (const Cube& c : cubes) {
    if (c.literal_count() == 0) return true;
  }
  return false;
}

/// Cofactor of a cube list w.r.t. one variable binding.
std::vector<Cube> cofactor_var(const std::vector<Cube>& cubes, std::size_t v, Lit value) {
  std::vector<Cube> out;
  out.reserve(cubes.size());
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

bool tautology_rec(std::vector<Cube> cubes, std::size_t variable_count) {
  while (true) {
    if (cubes.empty()) return false;
    if (has_universal_cube(cubes)) return true;

    ColumnStats stats = ColumnStats::of(cubes, variable_count);

    // Unate reduction: if v appears in one polarity only, the cover is a
    // tautology iff its cofactor against the *opposite* value is — which
    // simply deletes every cube that tests v.
    bool reduced = false;
    for (std::size_t v = 0; v < variable_count; ++v) {
      const bool pos_unate = stats.ones[v] > 0 && stats.zeros[v] == 0;
      const bool neg_unate = stats.zeros[v] > 0 && stats.ones[v] == 0;
      if (!pos_unate && !neg_unate) continue;
      std::erase_if(cubes, [v](const Cube& c) { return c.get(v) != Lit::DC; });
      reduced = true;
      break;  // stats are stale; recompute from the top
    }
    if (reduced) continue;

    const std::size_t v = stats.most_binate();
    if (v == ColumnStats::npos) {
      // Fully unate with no universal cube and nothing to reduce: only
      // possible when every cube is universal (caught above) — so false.
      return false;
    }
    return tautology_rec(cofactor_var(cubes, v, Lit::Zero), variable_count) &&
           tautology_rec(cofactor_var(cubes, v, Lit::One), variable_count);
  }
}

/// Thrown internally when a capped complement exceeds its budget.
struct ComplementOverflow {};

std::vector<Cube> complement_rec(const std::vector<Cube>& cubes,
                                 std::size_t variable_count,
                                 std::size_t* budget = nullptr) {
  if (budget != nullptr && *budget == 0) throw ComplementOverflow{};
  if (cubes.empty()) {
    return {Cube(variable_count)};  // complement of 0 is 1
  }
  if (has_universal_cube(cubes)) {
    return {};
  }
  if (cubes.size() == 1) {
    // De Morgan on a single product: one cube per tested literal.
    std::vector<Cube> out;
    const Cube& c = cubes.front();
    for (std::size_t v = 0; v < variable_count; ++v) {
      const Lit l = c.get(v);
      if (l == Lit::DC) continue;
      Cube term(variable_count);
      term.set(v, l == Lit::One ? Lit::Zero : Lit::One);
      out.push_back(std::move(term));
    }
    return out;
  }

  ColumnStats stats = ColumnStats::of(cubes, variable_count);
  std::size_t v = stats.most_binate();
  if (v == ColumnStats::npos) {
    // Unate cover: split on any tested variable (there is one, otherwise a
    // universal cube would exist).
    for (std::size_t u = 0; u < variable_count; ++u) {
      if (stats.ones[u] + stats.zeros[u] > 0) {
        v = u;
        break;
      }
    }
    assert(v != ColumnStats::npos);
  }

  std::vector<Cube> lo =
      complement_rec(cofactor_var(cubes, v, Lit::Zero), variable_count, budget);
  std::vector<Cube> hi =
      complement_rec(cofactor_var(cubes, v, Lit::One), variable_count, budget);
  if (budget != nullptr) {
    const std::size_t produced = lo.size() + hi.size();
    if (produced >= *budget) throw ComplementOverflow{};
    *budget -= produced;
  }
  std::vector<Cube> out;
  out.reserve(lo.size() + hi.size());
  // Merge cubes identical up to the split variable to curb growth.
  for (Cube& c : lo) {
    bool merged = false;
    for (const Cube& h : hi) {
      if (c == h) {
        out.push_back(c);  // v stays DC: present on both branches
        merged = true;
        break;
      }
    }
    if (!merged) {
      c.set(v, Lit::Zero);
      out.push_back(std::move(c));
    }
  }
  for (Cube& c : hi) {
    bool merged = false;
    for (const Cube& l : out) {
      if (l == c) {  // already emitted as a both-branches cube
        merged = true;
        break;
      }
    }
    if (!merged) {
      c.set(v, Lit::One);
      out.push_back(std::move(c));
    }
  }
  return out;
}

/// Single-cube containment over the cubes cube_at(0..count): the indices of
/// the kept cubes, larger cubes first so that removal is a single pass.
/// Each literal count is computed once, and std::sort over the same keys
/// permutes the (count, index) pairs exactly as it would the cubes.
template <typename CubeAt>
std::vector<std::size_t> scc_kept(std::size_t count, CubeAt cube_at) {
  std::vector<std::pair<std::size_t, std::size_t>> order;
  order.reserve(count);
  for (std::size_t i = 0; i < count; ++i) order.emplace_back(cube_at(i).literal_count(), i);
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::size_t> kept;
  for (const auto& [literals, i] : order) {
    const Cube& c = cube_at(i);
    if (std::none_of(kept.begin(), kept.end(),
                     [&](std::size_t k) { return cube_at(k).contains(c); })) {
      kept.push_back(i);
    }
  }
  return kept;
}

}  // namespace

Cover::Cover(std::size_t variable_count, std::vector<Cube> cubes)
    : variable_count_(variable_count), cubes_(std::move(cubes)) {
  for (const Cube& c : cubes_) {
    if (c.size() != variable_count_) {
      throw ValidationError("cube width does not match the cover's variable count");
    }
  }
}

Cover Cover::one(std::size_t variable_count) {
  Cover out(variable_count);
  out.add(Cube(variable_count));
  return out;
}

void Cover::add(Cube cube) {
  if (cube.size() != variable_count_) {
    throw ValidationError("cube width does not match the cover's variable count");
  }
  cubes_.push_back(std::move(cube));
}

void Cover::add_all(const Cover& other) {
  for (const Cube& c : other.cubes_) add(c);
}

std::size_t Cover::literal_count() const {
  std::size_t n = 0;
  for (const Cube& c : cubes_) n += c.literal_count();
  return n;
}

bool Cover::covers_point(const std::vector<std::uint8_t>& code) const {
  for (const Cube& c : cubes_) {
    if (c.covers_point(code)) return true;
  }
  return false;
}

Cover Cover::intersect(const Cover& other) const {
  Cover out(variable_count_);
  for (const Cube& a : cubes_) {
    for (const Cube& b : other.cubes_) {
      if (auto prod = a.intersect(b)) out.add(std::move(*prod));
    }
  }
  out.make_irredundant_scc();
  return out;
}

bool Cover::intersects(const Cover& other) const {
  for (const Cube& a : cubes_) {
    for (const Cube& b : other.cubes_) {
      if (a.intersects(b)) return true;
    }
  }
  return false;
}

void Cover::make_irredundant_scc() {
  const auto cube_at = [this](std::size_t k) -> const Cube& { return cubes_[k]; };
  std::vector<Cube> kept;
  for (const std::size_t i : scc_kept(cubes_.size(), cube_at)) {
    kept.push_back(std::move(cubes_[i]));
  }
  cubes_ = std::move(kept);
}

Cover Cover::union_of(std::size_t variable_count, const std::vector<const Cover*>& covers) {
  std::vector<const Cube*> cubes;
  for (const Cover* cover : covers) {
    if (cover->variable_count_ != variable_count) {
      throw ValidationError("cube width does not match the cover's variable count");
    }
    for (const Cube& c : cover->cubes_) cubes.push_back(&c);
  }
  const auto cube_at = [&cubes](std::size_t k) -> const Cube& { return *cubes[k]; };
  Cover out(variable_count);
  for (const std::size_t i : scc_kept(cubes.size(), cube_at)) out.cubes_.push_back(*cubes[i]);
  return out;
}

Cover Cover::cofactor(const Cube& c) const {
  Cover out(variable_count_);
  for (const Cube& cube : cubes_) {
    if (!cube.intersects(c)) continue;
    Cube reduced = cube;
    for (std::size_t v = 0; v < variable_count_; ++v) {
      if (c.get(v) != Lit::DC) reduced.set(v, Lit::DC);
    }
    out.add(std::move(reduced));
  }
  return out;
}

bool Cover::tautology() const { return tautology_rec(cubes_, variable_count_); }

bool Cover::contains_cube(const Cube& c) const { return cofactor(c).tautology(); }

bool Cover::contains_cover(const Cover& other) const {
  for (const Cube& c : other.cubes_) {
    if (!contains_cube(c)) return false;
  }
  return true;
}

Cover Cover::complement() const {
  Cover out(variable_count_, complement_rec(cubes_, variable_count_));
  out.make_irredundant_scc();
  return out;
}

std::optional<Cover> Cover::complement_capped(std::size_t max_cubes) const {
  std::size_t budget = max_cubes;
  try {
    Cover out(variable_count_, complement_rec(cubes_, variable_count_, &budget));
    out.make_irredundant_scc();
    return out;
  } catch (const ComplementOverflow&) {
    return std::nullopt;
  }
}

void Cover::normalize() {
  make_irredundant_scc();
  std::sort(cubes_.begin(), cubes_.end());
}

std::string Cover::to_expr(const std::vector<std::string>& names) const {
  if (cubes_.empty()) return "0";
  std::string out;
  for (const Cube& c : cubes_) {
    if (!out.empty()) out += " + ";
    out += c.to_expr(names);
  }
  return out;
}

std::string Cover::to_pla() const {
  std::string out;
  for (const Cube& c : cubes_) {
    out += c.to_string();
    out += "\n";
  }
  return out;
}

}  // namespace punt::logic

#include "src/logic/cover.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "src/util/error.hpp"

namespace punt::logic {
namespace {

/// Per-variable polarity statistics across a cube list.  A recursion keeps
/// one instance and recounts it at every node: a node needs its counts only
/// to choose the split variable, before it recurses.
struct ColumnStats {
  std::vector<std::size_t> ones;
  std::vector<std::size_t> zeros;

  explicit ColumnStats(std::size_t variable_count)
      : ones(variable_count, 0), zeros(variable_count, 0) {}

  void count(const std::vector<Cube>& cubes) {
    std::fill(ones.begin(), ones.end(), 0);
    std::fill(zeros.begin(), zeros.end(), 0);
    for (const Cube& c : cubes) {
      c.for_each_literal([this](std::size_t v, Lit l) { ++(l == Lit::One ? ones : zeros)[v]; });
    }
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

/// Cofactor of a cube list w.r.t. one variable binding, in order: every cube
/// that leaves v as DC or tests v == value, with v freed.
std::vector<Cube> cofactor_var(const std::vector<Cube>& cubes, std::size_t v, Lit value) {
  std::vector<Cube> out;
  out.reserve(cubes.size());
  for (const Cube& c : cubes) {
    const Lit l = c.get(v);
    if (l == Lit::DC) {
      out.push_back(c);
    } else if (l == value) {
      out.push_back(c);
      out.back().set(v, Lit::DC);
    }
  }
  return out;
}

bool tautology_rec(std::vector<Cube> cubes, ColumnStats& stats) {
  const std::size_t variable_count = stats.ones.size();
  while (true) {
    if (cubes.empty()) return false;
    if (has_universal_cube(cubes)) return true;

    stats.count(cubes);

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
    return tautology_rec(cofactor_var(cubes, v, Lit::Zero), stats) &&
           tautology_rec(cofactor_var(cubes, v, Lit::One), stats);
  }
}

/// The complement of a cube list before single-cube containment (DESIGN.md
/// §6): Shannon expansion on the most binate variable, merging the branch
/// results' common cubes.
std::vector<Cube> complement_rec(const std::vector<Cube>& cubes, ColumnStats& stats) {
  const std::size_t variable_count = stats.ones.size();
  if (cubes.empty()) return {Cube(variable_count)};  // complement of 0 is 1
  if (has_universal_cube(cubes)) return {};          // complement of 1 is 0
  if (cubes.size() == 1) {
    // De Morgan on a single product: one cube per tested literal.
    std::vector<Cube> out;
    cubes.front().for_each_literal([&](std::size_t v, Lit l) {
      out.emplace_back(variable_count);
      out.back().set(v, l == Lit::One ? Lit::Zero : Lit::One);
    });
    return out;
  }

  stats.count(cubes);
  std::size_t v = stats.most_binate();
  if (v == ColumnStats::npos) {
    // Unate list: split on any tested variable (there is one, otherwise a
    // universal cube would exist).
    for (std::size_t u = 0; u < variable_count; ++u) {
      if (stats.ones[u] + stats.zeros[u] > 0) {
        v = u;
        break;
      }
    }
    assert(v != ColumnStats::npos);
  }

  std::vector<Cube> out = complement_rec(cofactor_var(cubes, v, Lit::Zero), stats);
  std::vector<Cube> hi = complement_rec(cofactor_var(cubes, v, Lit::One), stats);
  // A cube on both branches keeps v as DC; the others get v = 0 or v = 1.
  const std::size_t lo_count = out.size();
  for (std::size_t i = 0; i < lo_count; ++i) {
    if (std::find(hi.begin(), hi.end(), out[i]) == hi.end()) out[i].set(v, Lit::Zero);
  }
  out.reserve(lo_count + hi.size());
  for (Cube& c : hi) {
    const auto lo_end = out.begin() + static_cast<std::ptrdiff_t>(lo_count);
    if (std::find(out.begin(), lo_end, c) == lo_end) {
      c.set(v, Lit::One);
      out.push_back(std::move(c));
    }
  }
  return out;
}

/// Single-cube containment over `cubes`: the indices of the kept cubes,
/// larger cubes first so that removal is a single pass.  Each literal count
/// is computed once, and std::sort over the same keys permutes the (count,
/// index) pairs exactly as it would the cubes.
std::vector<std::size_t> scc_kept(const std::vector<Cube>& cubes) {
  std::vector<std::pair<std::size_t, std::size_t>> order;
  order.reserve(cubes.size());
  for (std::size_t i = 0; i < cubes.size(); ++i) order.emplace_back(cubes[i].literal_count(), i);
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::size_t> kept;
  for (const auto& [literals, i] : order) {
    if (std::none_of(kept.begin(), kept.end(),
                     [&](std::size_t k) { return cubes[k].contains(cubes[i]); })) {
      kept.push_back(i);
    }
  }
  return kept;
}

/// Two cube lists are compared pairwise when either has at most this many
/// cubes (a split costs a pass over both lists), or when the best split
/// keeps more than 3/4 of their pairs.
constexpr std::size_t kPairwiseSide = 8;

/// The exact "some cube of A meets some cube of B" test behind
/// Cover::intersects (DESIGN.md §6).  Both lists are split on the variable
/// whose split leaves the fewest pairs; a cube with DC there goes to both
/// halves.  Two cubes meet iff no variable holds opposite constants, so
/// every meeting pair lands together in some half, and a half only pairs
/// cubes that were paired before.  The lists live on one DFS stack of cube
/// pointers, so a split allocates nothing once the stack has grown.
class PairSplitter {
 public:
  PairSplitter(const std::vector<Cube>& a, const std::vector<Cube>& b, std::size_t variable_count)
      : a_size_(a.size()), counts_(4 * variable_count) {
    stack_.reserve(2 * (a.size() + b.size()));
    for (const Cube& c : a) stack_.push_back(&c);
    for (const Cube& c : b) stack_.push_back(&c);
  }

  bool any_pair_meets() { return meets(0, a_size_, a_size_, stack_.size() - a_size_); }

 private:
  /// Whether some cube of stack_[a, a + na) meets some cube of
  /// stack_[b, b + nb).
  bool meets(std::size_t a, std::size_t na, std::size_t b, std::size_t nb) {
    if (na == 0 || nb == 0) return false;
    const std::size_t v = std::min(na, nb) > kPairwiseSide ? best_split(a, na, b, nb) : npos;
    if (v == npos) {
      for (std::size_t i = a; i < a + na; ++i) {
        for (std::size_t j = b; j < b + nb; ++j) {
          if (stack_[i]->intersects(*stack_[j])) return true;
        }
      }
      return false;
    }
    const std::size_t mark = stack_.size();
    for (const Lit excluded : {Lit::One, Lit::Zero}) {
      const std::size_t a_half = stack_.size();
      push_half(a, na, v, excluded);
      const std::size_t b_half = stack_.size();
      push_half(b, nb, v, excluded);
      const bool hit = meets(a_half, b_half - a_half, b_half, stack_.size() - b_half);
      stack_.resize(mark);
      if (hit) return true;
    }
    return false;
  }

  /// The variable whose split leaves the fewest pairs, or npos when even
  /// that split keeps more than 3/4 of the na * nb pairs.
  std::size_t best_split(std::size_t a, std::size_t na, std::size_t b, std::size_t nb) {
    std::fill(counts_.begin(), counts_.end(), 0);
    count(a, na, 0);
    count(b, nb, 2);
    std::size_t best = npos;
    std::size_t best_pairs = na * nb;
    for (std::size_t v = 0; 4 * v < counts_.size(); ++v) {
      const std::size_t* c = &counts_[4 * v];
      // Zero half: the cubes not One at v; One half: the cubes not Zero.
      const std::size_t pairs = (na - c[1]) * (nb - c[3]) + (na - c[0]) * (nb - c[2]);
      if (pairs < best_pairs) {
        best = v;
        best_pairs = pairs;
      }
    }
    return 4 * best_pairs <= 3 * na * nb ? best : npos;
  }

  /// Adds the per-variable Zero and One counts of stack_[begin, begin + n)
  /// to counts_[4v + offset] and counts_[4v + offset + 1].
  void count(std::size_t begin, std::size_t n, std::size_t offset) {
    for (std::size_t i = begin; i < begin + n; ++i) {
      stack_[i]->for_each_literal([&](std::size_t v, Lit l) {
        ++counts_[4 * v + offset + (l == Lit::One ? 1 : 0)];
      });
    }
  }

  /// Pushes the cubes of stack_[begin, begin + n) not `excluded` at v.
  void push_half(std::size_t begin, std::size_t n, std::size_t v, Lit excluded) {
    for (std::size_t i = begin; i < begin + n; ++i) {
      const Cube* c = stack_[i];
      if (c->get(v) != excluded) stack_.push_back(c);
    }
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::size_t a_size_;
  std::vector<const Cube*> stack_;
  std::vector<std::size_t> counts_;  // per variable: A zeros, A ones, B zeros, B ones
};

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
  if (std::min(cubes_.size(), other.cubes_.size()) > kPairwiseSide) {
    return PairSplitter(cubes_, other.cubes_, variable_count_).any_pair_meets();
  }
  for (const Cube& a : cubes_) {
    for (const Cube& b : other.cubes_) {
      if (a.intersects(b)) return true;
    }
  }
  return false;
}

void Cover::remove_duplicates() {
  // Open addressing over the positions of the kept cubes, keyed by
  // Cube::hash.  A kept cube moves down before the next probe, so every
  // stored position names a kept cube.
  constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);
  std::size_t mask = 15;
  while (mask < 2 * cubes_.size()) mask = 2 * mask + 1;
  std::vector<std::size_t> slots(mask + 1, kEmpty);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    std::size_t k = cubes_[i].hash() & mask;
    while (slots[k] != kEmpty && !(cubes_[slots[k]] == cubes_[i])) k = (k + 1) & mask;
    if (slots[k] != kEmpty) continue;  // a repeat of a kept cube
    if (kept != i) cubes_[kept] = std::move(cubes_[i]);
    slots[k] = kept++;
  }
  cubes_.resize(kept);
}

void Cover::make_irredundant_scc() {
  std::vector<Cube> kept;
  for (const std::size_t i : scc_kept(cubes_)) kept.push_back(std::move(cubes_[i]));
  cubes_ = std::move(kept);
}

Cover Cover::cofactor(const Cube& c) const {
  Cover out(variable_count_);
  for (const Cube& cube : cubes_) {
    if (auto reduced = cube.cofactor(c)) out.cubes_.push_back(std::move(*reduced));
  }
  return out;
}

bool Cover::tautology() const {
  ColumnStats stats(variable_count_);
  return tautology_rec(cubes_, stats);
}

bool Cover::contains_cube(const Cube& c) const { return cofactor(c).tautology(); }

bool Cover::contains_cover(const Cover& other) const {
  for (const Cube& c : other.cubes_) {
    if (!contains_cube(c)) return false;
  }
  return true;
}

Cover Cover::complement() const {
  ColumnStats stats(variable_count_);
  Cover out(variable_count_, complement_rec(cubes_, stats));
  out.make_irredundant_scc();
  return out;
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

// Covers: sums of cubes (SOP form) with the classic two-level operations.
//
// Tautology and complement use the unate-recursive paradigm (Shannon
// expansion on the most binate variable, with unate shortcuts), which keeps
// the synthesis pipeline polynomial-in-practice on the benchmark suite.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/logic/cube.hpp"

namespace punt::logic {

/// A sum of cubes over a fixed variable count.  The empty cover is the
/// constant 0; a cover containing the universal cube is the constant 1.
class Cover {
 public:
  Cover() = default;
  explicit Cover(std::size_t variable_count) : variable_count_(variable_count) {}

  /// Cover made of the given cubes (all must have `variable_count` vars).
  Cover(std::size_t variable_count, std::vector<Cube> cubes);

  /// The constant-1 cover (one universal cube).
  static Cover one(std::size_t variable_count);

  std::size_t variable_count() const { return variable_count_; }
  std::size_t cube_count() const { return cubes_.size(); }
  bool empty() const { return cubes_.empty(); }

  const std::vector<Cube>& cubes() const { return cubes_; }
  const Cube& cube(std::size_t i) const { return cubes_[i]; }

  void add(Cube cube);
  void add_all(const Cover& other);

  /// Sum of per-cube literal counts — the paper's LitCnt metric.
  std::size_t literal_count() const;

  /// Membership of one binary point.
  bool covers_point(const std::vector<std::uint8_t>& code) const;

  /// Pairwise products of the two covers' cubes (empty products dropped).
  Cover intersect(const Cover& other) const;

  /// True when some pair of cubes intersects — the paper's cover-correctness
  /// test `C*On . C*Off != 0` without materialising the product.  Splits
  /// both cube lists by variable instead of comparing all pairs (DESIGN.md §6).
  bool intersects(const Cover& other) const;

  /// Removes duplicate cubes and cubes contained in another single cube.
  void make_irredundant_scc();

  /// Removes repeated cubes only, keeping each cube's first occurrence and
  /// the cubes' relative order (a hash set over the cube words).
  void remove_duplicates();

  /// Shannon cofactor of the cover w.r.t. a cube (the subspace where the
  /// cube's constant literals hold).  Cubes disjoint from `c` are dropped;
  /// surviving cubes get DC at c's constant positions.
  Cover cofactor(const Cube& c) const;

  /// True when the cover equals constant 1 (unate-recursive check).
  bool tautology() const;

  /// True when cube `c` is covered by this cover (possibly by several cubes
  /// jointly): tautology of this->cofactor(c).
  bool contains_cube(const Cube& c) const;

  /// True when every cube of `other` is covered by this cover.
  bool contains_cover(const Cover& other) const;

  /// Complement via unate-recursive Shannon expansion (DESIGN.md §6).
  Cover complement() const;

  /// Canonical order (sort + dedupe); useful for comparisons in tests.
  void normalize();

  bool operator==(const Cover& other) const {
    return variable_count_ == other.variable_count_ && cubes_ == other.cubes_;
  }

  /// SOP rendering, e.g. "a c' + b d"; constant covers render "0" / "1".
  std::string to_expr(const std::vector<std::string>& names) const;

  /// One cube per line in "10-" notation (PLA-style), for debugging.
  std::string to_pla() const;

 private:
  std::size_t variable_count_ = 0;
  std::vector<Cube> cubes_;
};

}  // namespace punt::logic

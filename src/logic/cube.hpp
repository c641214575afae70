// Cubes: products of literals over a fixed variable set.
//
// A cube assigns each variable Zero, One or DC (absent from the product).
// Cubes are the paper's cover terms; a cover (cover.hpp) is a set of cubes
// interpreted as their union (SOP form).
//
// Storage is positional-cube notation: 2 bits per variable packed into
// 64-bit words, 01 = Zero, 10 = One, 11 = DC (00, the void pair, never
// appears in a stored cube).  Pairs past the last variable are DC, so every
// word operation runs over whole words without masks.  Up to
// kInlineVariables variables the words live inside the object; wider cubes
// keep them on the heap (DESIGN.md §6).
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace punt::logic {

/// Value of one variable inside a cube.
enum class Lit : std::uint8_t { Zero = 0, One = 1, DC = 2 };

/// A product term over `size()` variables.
class Cube {
 public:
  Cube() : size_(0), inline_{kAllDc, kAllDc} {}
  /// All variables set to `fill` (default: the universal cube).
  explicit Cube(std::size_t variable_count, Lit fill = Lit::DC);

  // Every constructor writes both inline words first, so the storage is
  // fully initialized whichever union member is active.
  Cube(const Cube& other) : size_(other.size_), inline_{kAllDc, kAllDc} {
    if (is_inline()) {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    } else {
      copy_heap(other);
    }
  }
  Cube(Cube&& other) noexcept : size_(other.size_), inline_{kAllDc, kAllDc} { take_words(other); }
  Cube& operator=(const Cube& other);
  Cube& operator=(Cube&& other) noexcept {
    if (this != &other) {
      release();
      size_ = other.size_;
      take_words(other);
    }
    return *this;
  }
  ~Cube() { release(); }

  /// Builds a cube from "10-" notation; characters must be 0, 1 or -.
  static Cube from_string(std::string_view text);

  /// The minterm cube of a binary code (every variable a constant).
  static Cube from_code(const std::vector<std::uint8_t>& code);
  /// The minterm cube of the code whose variable v is bit v%64 of
  /// values[v/64], with every variable set in `dc` (same layout) raised to
  /// DC.  Both spans hold at least (variable_count + 63) / 64 words.
  static Cube from_bits(std::span<const std::uint64_t> values,
                        std::span<const std::uint64_t> dc, std::size_t variable_count);

  std::size_t size() const { return size_; }

  Lit get(std::size_t v) const {
    return static_cast<Lit>(((words()[v / kPairsPerWord] >> shift_of(v)) & 3U) - 1);
  }
  void set(std::size_t v, Lit value) {
    std::uint64_t& w = words()[v / kPairsPerWord];
    w = (w & ~(std::uint64_t{3} << shift_of(v))) |
        (static_cast<std::uint64_t>(static_cast<unsigned>(value) + 1) << shift_of(v));
  }

  /// Calls f(v, lit) for every non-DC variable, in increasing order.
  template <typename F>
  void for_each_literal(F&& f) const {
    const std::uint64_t* w = words();
    for (std::size_t i = 0; i < word_count(); ++i) {
      for (std::uint64_t bits = literal_bits(w[i]); bits != 0; bits &= bits - 1) {
        const auto shift = static_cast<unsigned>(std::countr_zero(bits));
        f(i * kPairsPerWord + shift / 2, static_cast<Lit>(((w[i] >> shift) & 3U) - 1));
      }
    }
  }

  /// Number of non-DC positions (the paper's literal-count metric).
  std::size_t literal_count() const {
    std::size_t n = 0;
    const std::uint64_t* w = words();
    for (std::size_t i = 0; i < word_count(); ++i) {
      n += static_cast<std::size_t>(std::popcount(literal_bits(w[i])));
    }
    return n;
  }

  /// True when this cube's point set includes all of `other`'s.
  bool contains(const Cube& other) const {
    const std::uint64_t* a = words();
    const std::uint64_t* b = other.words();
    for (std::size_t i = 0; i < word_count(); ++i) {
      if ((b[i] & ~a[i]) != 0) return false;
    }
    return true;
  }

  /// True when the two cubes share at least one minterm (no variable with
  /// opposite constants).
  bool intersects(const Cube& other) const {
    const std::uint64_t* a = words();
    const std::uint64_t* b = other.words();
    for (std::size_t i = 0; i < word_count(); ++i) {
      if (void_bits(a[i] & b[i]) != 0) return false;
    }
    return true;
  }

  /// The product of the two cubes, or nullopt when disjoint.
  std::optional<Cube> intersect(const Cube& other) const;

  /// The cube restricted to the subspace of `c`: nullopt when disjoint,
  /// otherwise this cube with every variable `c` fixes raised to DC.
  std::optional<Cube> cofactor(const Cube& c) const;

  /// Number of variables where the cubes hold opposite constants.
  std::size_t distance(const Cube& other) const;

  /// Smallest cube containing both inputs.
  Cube supercube_with(const Cube& other) const;

  /// True when the binary point `code` lies inside the cube.
  bool covers_point(const std::vector<std::uint8_t>& code) const;

  bool operator==(const Cube& other) const {
    if (size_ != other.size_) return false;
    const std::uint64_t* a = words();
    const std::uint64_t* b = other.words();
    for (std::size_t i = 0; i < word_count(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
  /// Lexicographic by variable index with Zero < One < DC; a proper prefix
  /// orders first.
  bool operator<(const Cube& other) const;

  /// Hash of the packed words: equal cubes hash equally, and every bit of
  /// the result depends on every word (murmur3's finalizer), so callers may
  /// mask it to any power-of-two table size.
  std::uint64_t hash() const {
    const std::uint64_t* w = words();
    std::uint64_t h = size_;
    for (std::size_t i = 0; i < word_count(); ++i) h = (h ^ w[i]) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ULL;
    return h ^ (h >> 33);
  }

  /// "10-" notation.
  std::string to_string() const;

  /// Product-term notation using variable names, e.g. "a b' d"; the
  /// universal cube renders as "1".
  std::string to_expr(const std::vector<std::string>& names) const;

 private:
  /// Widest cube whose words are stored inline (two words).
  static constexpr std::size_t kInlineVariables = 64;
  static constexpr std::size_t kPairsPerWord = 32;
  static constexpr std::uint64_t kAllDc = ~std::uint64_t{0};
  static constexpr std::uint64_t kLowBits = 0x5555555555555555ULL;

  static unsigned shift_of(std::size_t v) { return static_cast<unsigned>(2 * (v % kPairsPerWord)); }
  /// Low bit of every non-DC pair of `w`.
  static std::uint64_t literal_bits(std::uint64_t w) { return ~(w & (w >> 1)) & kLowBits; }
  /// Low bit of every void (00) pair of `w`.
  static std::uint64_t void_bits(std::uint64_t w) { return ~(w | (w >> 1)) & kLowBits; }

  bool is_inline() const { return size_ <= kInlineVariables; }
  /// Words the operations visit: both inline words, or every heap word.
  std::size_t word_count() const {
    return is_inline() ? 2 : (size_ + kPairsPerWord - 1) / kPairsPerWord;
  }
  const std::uint64_t* words() const { return is_inline() ? inline_ : heap_; }
  std::uint64_t* words() { return is_inline() ? inline_ : heap_; }
  void release() {
    if (!is_inline()) delete[] heap_;
  }
  /// Allocates the heap words for size_ and copies `other`'s into them.
  void copy_heap(const Cube& other);
  /// Takes `other`'s words (size_ already equal to other.size_) and leaves
  /// `other` the empty cube.
  void take_words(Cube& other) noexcept {
    if (is_inline()) {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    } else {
      heap_ = other.heap_;
    }
    other.size_ = 0;
    other.inline_[0] = other.inline_[1] = kAllDc;
  }

  std::size_t size_;
  union {
    std::uint64_t inline_[2];
    std::uint64_t* heap_;
  };
};

}  // namespace punt::logic

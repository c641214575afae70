// A compact dynamic bitset.
//
// std::vector<bool> lacks word-level access and std::bitset is fixed-size;
// the unfolding algorithms (co-relation maintenance, local-configuration
// sets) need fast AND/OR/subset tests over sets whose universe grows as the
// segment grows, so we keep our own small implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace punt {

/// Dynamically sized bitset over indices [0, size()).
///
/// Bits beyond size() inside the last word are kept at zero (all mutators
/// preserve this), so whole-word operations such as count() and the
/// comparison operators need no masking.
class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t size) : size_(size), words_(word_count(size), 0) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Grows (or shrinks) to `size` bits; newly exposed bits are zero.
  void resize(std::size_t size);

  bool test(std::size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1u; }
  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void reset(std::size_t i) { words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }
  void assign(std::size_t i, bool value) { value ? set(i) : reset(i); }

  void clear_all();
  void set_all();

  /// Number of set bits.
  std::size_t count() const;
  bool any() const;
  bool none() const { return !any(); }

  /// Index of the lowest set bit, or npos when none is set.
  std::size_t find_first() const;
  /// Index of the lowest set bit strictly above `i`, or npos.
  std::size_t find_next(std::size_t i) const;

  Bitset& operator&=(const Bitset& other);
  Bitset& operator|=(const Bitset& other);
  Bitset& operator^=(const Bitset& other);
  /// this := this AND NOT other.
  Bitset& subtract(const Bitset& other);

  /// The same operations with the words of a bitset of the same size, such
  /// as a row of a word table.
  Bitset& operator&=(std::span<const std::uint64_t> other);
  Bitset& operator|=(std::span<const std::uint64_t> other);
  Bitset& subtract(std::span<const std::uint64_t> other);

  friend Bitset operator&(Bitset a, const Bitset& b) { return a &= b; }
  friend Bitset operator|(Bitset a, const Bitset& b) { return a |= b; }

  /// True when the two sets share at least one element.
  bool intersects(const Bitset& other) const;
  /// True when every set bit of *this is also set in `other`.
  bool is_subset_of(const Bitset& other) const;

  bool operator==(const Bitset& other) const;

  /// Invokes `fn(index)` for every set bit in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Set bits as an ascending index vector (handy in tests).
  std::vector<std::size_t> to_indices() const;

  /// "{1, 4, 7}" style rendering for diagnostics.
  std::string to_string() const;

  /// FNV-1a hash of the payload words; suitable for unordered containers.
  std::size_t hash() const;

  /// Raw payload words (bit i lives in word i/64 at position i%64); exposed
  /// for word-level row operations, which combine whole words instead of
  /// testing bits one by one.
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Rebuilds a bitset from `size` and the payload produced by words().
  /// Throws ValidationError when the word count does not match the size or a
  /// bit beyond `size` is set (both indicate a caller bug, and silently
  /// masking them would hide it).
  static Bitset from_words(std::size_t size, std::vector<std::uint64_t> words);

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  static std::size_t word_count(std::size_t bits) { return (bits + 63) / 64; }
  void mask_tail();

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Transposes a 64×64 bit matrix held as 64 words: bit j of rows[i] trades
/// places with bit i of rows[j].
void transpose64(std::uint64_t* rows);

struct BitsetHash {
  std::size_t operator()(const Bitset& b) const { return b.hash(); }
};

}  // namespace punt

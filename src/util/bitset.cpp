#include "src/util/bitset.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/util/error.hpp"

namespace punt {

Bitset Bitset::from_words(std::size_t size, std::vector<std::uint64_t> words) {
  if (words.size() != word_count(size)) {
    throw ValidationError("Bitset::from_words: " + std::to_string(words.size()) +
                          " word(s) cannot carry a bitset of " + std::to_string(size) +
                          " bit(s)");
  }
  const std::size_t used = size & 63;
  if (!words.empty() && used != 0 &&
      (words.back() & ~((std::uint64_t{1} << used) - 1)) != 0) {
    throw ValidationError("Bitset::from_words: a bit beyond the declared size of " +
                          std::to_string(size) + " is set");
  }
  Bitset bits;
  bits.size_ = size;
  bits.words_ = std::move(words);
  return bits;
}

void Bitset::resize(std::size_t size) {
  size_ = size;
  words_.resize(word_count(size), 0);
  mask_tail();
}

void Bitset::mask_tail() {
  const std::size_t used = size_ & 63;
  if (!words_.empty() && used != 0) {
    words_.back() &= (std::uint64_t{1} << used) - 1;
  }
}

void Bitset::clear_all() { std::fill(words_.begin(), words_.end(), 0); }

void Bitset::set_all() {
  std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
  mask_tail();
}

std::size_t Bitset::count() const {
  std::size_t n = 0;
  for (const std::uint64_t w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
  return n;
}

bool Bitset::any() const {
  for (const std::uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
}

std::size_t Bitset::find_first() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) return w * 64 + static_cast<std::size_t>(__builtin_ctzll(words_[w]));
  }
  return npos;
}

std::size_t Bitset::find_next(std::size_t i) const {
  ++i;
  if (i >= size_) return npos;
  std::size_t w = i >> 6;
  std::uint64_t word = words_[w] & (~std::uint64_t{0} << (i & 63));
  while (true) {
    if (word != 0) return w * 64 + static_cast<std::size_t>(__builtin_ctzll(word));
    if (++w >= words_.size()) return npos;
    word = words_[w];
  }
}

Bitset& Bitset::operator&=(const Bitset& other) {
  assert(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

Bitset& Bitset::operator|=(const Bitset& other) {
  assert(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

Bitset& Bitset::operator^=(const Bitset& other) {
  assert(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

Bitset& Bitset::subtract(const Bitset& other) {
  assert(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

Bitset& Bitset::operator&=(std::span<const std::uint64_t> other) {
  assert(words_.size() == other.size());
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other[i];
  return *this;
}

Bitset& Bitset::operator|=(std::span<const std::uint64_t> other) {
  assert(words_.size() == other.size());
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other[i];
  return *this;
}

Bitset& Bitset::subtract(std::span<const std::uint64_t> other) {
  assert(words_.size() == other.size());
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other[i];
  return *this;
}

bool Bitset::intersects(const Bitset& other) const {
  assert(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

bool Bitset::is_subset_of(const Bitset& other) const {
  assert(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

bool Bitset::operator==(const Bitset& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

std::vector<std::size_t> Bitset::to_indices() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for_each([&out](std::size_t i) { out.push_back(i); });
  return out;
}

std::string Bitset::to_string() const {
  std::string out = "{";
  bool first = true;
  for_each([&](std::size_t i) {
    if (!first) out += ", ";
    first = false;
    out += std::to_string(i);
  });
  out += "}";
  return out;
}

std::size_t Bitset::hash() const {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t w : words_) {
    h ^= w;
    h *= 1099511628211ull;
  }
  h ^= size_;
  h *= 1099511628211ull;
  return static_cast<std::size_t>(h);
}

void transpose64(std::uint64_t* rows) {
  // Swap ever smaller off-diagonal blocks: 32×32, then 16×16, down to 1×1.
  // The innermost loop runs over consecutive rows, so it vectorises.
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (int base = 0; base < 64; base += 2 * j) {
      std::uint64_t* low = rows + base;
      std::uint64_t* high = rows + base + j;
      for (int k = 0; k < j; ++k) {
        const std::uint64_t t = ((low[k] >> j) ^ high[k]) & mask;
        high[k] ^= t;
        low[k] ^= t << j;
      }
    }
  }
}

}  // namespace punt

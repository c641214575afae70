#include "src/logic/cube.hpp"

#include <algorithm>

#include "src/util/error.hpp"

namespace punt::logic {

Cube::Cube(std::size_t variable_count, Lit fill) : size_(variable_count), inline_{kAllDc, kAllDc} {
  if (!is_inline()) {
    heap_ = new std::uint64_t[word_count()];
    std::fill_n(heap_, word_count(), kAllDc);
  }
  if (fill != Lit::DC) {
    for (std::size_t v = 0; v < size_; ++v) set(v, fill);
  }
}

Cube& Cube::operator=(const Cube& other) {
  if (this != &other) *this = Cube(other);
  return *this;
}

void Cube::copy_heap(const Cube& other) {
  heap_ = new std::uint64_t[word_count()];
  std::copy_n(other.heap_, word_count(), heap_);
}

Cube Cube::from_string(std::string_view text) {
  Cube out(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    switch (text[i]) {
      case '0': out.set(i, Lit::Zero); break;
      case '1': out.set(i, Lit::One); break;
      case '-': out.set(i, Lit::DC); break;
      default:
        throw ValidationError(std::string("invalid cube character '") + text[i] + "'");
    }
  }
  return out;
}

Cube Cube::from_code(const std::vector<std::uint8_t>& code) {
  Cube out(code.size());
  std::uint64_t* w = out.words();
  for (std::size_t i = 0; i < code.size(); ++i) {
    // DC (11) xor 01 is One (10); xor 10 is Zero (01).
    w[i / kPairsPerWord] ^= (code[i] ? std::uint64_t{1} : std::uint64_t{2}) << shift_of(i);
  }
  return out;
}

namespace {

/// Bit i of the low 32 bits of x, moved to bit 2i.
std::uint64_t spread_pairs(std::uint64_t x) {
  x &= 0x00000000FFFFFFFFULL;
  x = (x | (x << 16)) & 0x0000FFFF0000FFFFULL;
  x = (x | (x << 8)) & 0x00FF00FF00FF00FFULL;
  x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0FULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  return (x | (x << 1)) & 0x5555555555555555ULL;
}

}  // namespace

Cube Cube::from_bits(std::span<const std::uint64_t> values, std::span<const std::uint64_t> dc,
                     std::size_t variable_count) {
  Cube out(variable_count);
  std::uint64_t* w = out.words();
  for (std::size_t first = 0; first < variable_count; first += kPairsPerWord) {
    const std::uint64_t v = values[first / 64] >> (first % 64);
    std::uint64_t d = dc[first / 64] >> (first % 64);
    // Pairs past the last variable stay DC.
    if (variable_count - first < kPairsPerWord) d |= ~std::uint64_t{0} << (variable_count - first);
    // A pair's high bit is set for One and DC, its low bit for Zero and DC.
    w[first / kPairsPerWord] = (spread_pairs(v | d) << 1) | spread_pairs(~v | d);
  }
  return out;
}

std::optional<Cube> Cube::intersect(const Cube& other) const {
  if (!intersects(other)) return std::nullopt;
  Cube out(*this);
  std::uint64_t* w = out.words();
  const std::uint64_t* b = other.words();
  for (std::size_t i = 0; i < word_count(); ++i) w[i] &= b[i];
  return out;
}

std::optional<Cube> Cube::cofactor(const Cube& c) const {
  if (!intersects(c)) return std::nullopt;
  Cube out(*this);
  std::uint64_t* w = out.words();
  const std::uint64_t* fixed = c.words();
  // literal_bits marks the low bit of each pair c fixes; * 3 widens the mark
  // to the whole pair, which the OR raises to DC.
  for (std::size_t i = 0; i < word_count(); ++i) w[i] |= literal_bits(fixed[i]) * 3;
  return out;
}

std::size_t Cube::distance(const Cube& other) const {
  std::size_t n = 0;
  const std::uint64_t* a = words();
  const std::uint64_t* b = other.words();
  for (std::size_t i = 0; i < word_count(); ++i) {
    n += static_cast<std::size_t>(std::popcount(void_bits(a[i] & b[i])));
  }
  return n;
}

Cube Cube::supercube_with(const Cube& other) const {
  Cube out(*this);
  std::uint64_t* w = out.words();
  const std::uint64_t* b = other.words();
  for (std::size_t i = 0; i < word_count(); ++i) w[i] |= b[i];
  return out;
}

bool Cube::covers_point(const std::vector<std::uint8_t>& code) const {
  const std::uint64_t* w = words();
  for (std::size_t i = 0; i < size_; ++i) {
    const std::uint64_t allowed = code[i] ? 2 : 1;
    if (((w[i / kPairsPerWord] >> shift_of(i)) & allowed) == 0) return false;
  }
  return true;
}

bool Cube::operator<(const Cube& other) const {
  const std::size_t common = std::min(size_, other.size_);
  const std::uint64_t* a = words();
  const std::uint64_t* b = other.words();
  for (std::size_t i = 0; i * kPairsPerWord < common; ++i) {
    std::uint64_t diff = a[i] ^ b[i];
    const std::size_t pairs = common - i * kPairsPerWord;
    if (pairs < kPairsPerWord) diff &= (std::uint64_t{1} << (2 * pairs)) - 1;
    if (diff != 0) {
      // The lowest differing pair is the first differing variable; the
      // codes 01 < 10 < 11 order Zero < One < DC.
      const auto shift = static_cast<unsigned>(std::countr_zero(diff)) & ~1U;
      return ((a[i] >> shift) & 3U) < ((b[i] >> shift) & 3U);
    }
  }
  return size_ < other.size_;
}

std::string Cube::to_string() const {
  std::string out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    const Lit l = get(i);
    out += l == Lit::Zero ? '0' : (l == Lit::One ? '1' : '-');
  }
  return out;
}

std::string Cube::to_expr(const std::vector<std::string>& names) const {
  std::string out;
  for_each_literal([&](std::size_t v, Lit l) {
    if (!out.empty()) out += " ";
    out += names[v];
    if (l == Lit::Zero) out += "'";
  });
  return out.empty() ? "1" : out;
}

}  // namespace punt::logic

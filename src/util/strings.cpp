#include "src/util/strings.hpp"

#include <cstdarg>
#include <cstdio>

namespace punt {

std::string printf_string(const char* format, ...) {
  va_list args;
  va_start(args, format);
  char buffer[512];
  const int n = std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  if (n < 0) return std::string();
  if (static_cast<std::size_t>(n) < sizeof buffer) return std::string(buffer, n);
  // Too long for the stack buffer (e.g. a JSON row embedding a long error
  // message): size exactly and format again — truncation here would emit
  // malformed JSON or break daemon/CLI output parity.
  std::string out(static_cast<std::size_t>(n), '\0');
  va_start(args, format);
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

std::vector<std::string> split(std::string_view text, std::string_view delims) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && delims.find(text[i]) != std::string_view::npos) ++i;
    std::size_t j = i;
    while (j < text.size() && delims.find(text[j]) == std::string_view::npos) ++j;
    if (j > i) out.emplace_back(text.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && (text[b] == ' ' || text[b] == '\t' || text[b] == '\r' || text[b] == '\n')) ++b;
  while (e > b && (text[e - 1] == ' ' || text[e - 1] == '\t' || text[e - 1] == '\r' ||
                   text[e - 1] == '\n')) {
    --e;
  }
  return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::vector<std::string> logical_lines(std::string_view text) {
  std::vector<std::string> out;
  std::string current;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line =
        nl == std::string_view::npos ? text.substr(pos) : text.substr(pos, nl - pos);
    while (!line.empty() && (line.back() == '\r')) line.remove_suffix(1);
    if (!line.empty() && line.back() == '\\') {
      line.remove_suffix(1);
      current += line;
    } else {
      current += line;
      out.push_back(current);
      current.clear();
    }
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  return out;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace punt

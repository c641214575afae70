// Small string utilities shared by the `.g` parser and the report writers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace punt {

/// Splits on any run of characters from `delims`; empty tokens are dropped.
std::vector<std::string> split(std::string_view text, std::string_view delims = " \t");

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view text);

/// True when `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Splits `text` into lines; a trailing '\\' joins a line with its successor
/// (the `.g` format's continuation convention).  '\r' is stripped.
std::vector<std::string> logical_lines(std::string_view text);

/// printf into a std::string.  Never truncates: output longer than the
/// stack buffer is measured and formatted again at exact size (truncation
/// would corrupt the JSON and CLI-parity lines this backs).
std::string printf_string(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// FNV-1a 64-bit over a byte range — the digest the golden tests pin.
std::uint64_t fnv1a64(std::string_view bytes);

}  // namespace punt

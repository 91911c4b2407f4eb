// Lexing shared by the line grammars (chaos scenarios, workload and
// adversary specs): whitespace-separated tokens with '#' comments, and
// numbers that must fill their whole token.  Time literals have their own
// parser, ParseTime in src/common/time.h.
#ifndef SRC_COMMON_TOKENS_H_
#define SRC_COMMON_TOKENS_H_

#include <charconv>
#include <string>
#include <vector>

namespace autonet {

// Splits `text` on whitespace.  '#' starts a comment that runs to the end
// of its line.
std::vector<std::string> SplitTokens(const std::string& text);

// Parses all of `tok` as a decimal number in [lo, hi] (an integer when T
// is integral).  False, leaving *out alone, on an empty token, a sign of
// '+', trailing characters ("3x", "0.5abc"), a fraction where an integer
// is wanted ("2.9"), overflow, NaN, or a value out of range.
template <typename T>
bool ParseNumber(const std::string& tok, T lo, T hi, T* out) {
  T v{};
  const char* end = tok.data() + tok.size();
  auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ec != std::errc() || ptr != end || !(v >= lo && v <= hi)) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace autonet

#endif  // SRC_COMMON_TOKENS_H_

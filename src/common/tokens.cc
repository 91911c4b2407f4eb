#include "src/common/tokens.h"

#include <cctype>

namespace autonet {

namespace {

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

}  // namespace

std::vector<std::string> SplitTokens(const std::string& text) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] == '#') {
      i = text.find('\n', i);  // npos ends the loop
    } else if (IsSpace(text[i])) {
      ++i;
    } else {
      const std::size_t start = i;
      while (i < text.size() && text[i] != '#' && !IsSpace(text[i])) {
        ++i;
      }
      tokens.emplace_back(text, start, i - start);
    }
  }
  return tokens;
}

}  // namespace autonet

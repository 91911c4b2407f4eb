#include "src/common/time.h"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace autonet {

std::string FormatTime(Tick t) {
  auto exact = [&](Tick unit) { return t % unit == 0; };
  char buf[32];
  if (t != 0 && exact(kSecond)) {
    std::snprintf(buf, sizeof buf, "%llds",
                  static_cast<long long>(t / kSecond));
  } else if (t != 0 && exact(kMillisecond)) {
    std::snprintf(buf, sizeof buf, "%lldms",
                  static_cast<long long>(t / kMillisecond));
  } else if (t != 0 && exact(kMicrosecond)) {
    std::snprintf(buf, sizeof buf, "%lldus",
                  static_cast<long long>(t / kMicrosecond));
  } else {
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(t));
  }
  return buf;
}

bool ParseTime(const std::string& literal, Tick* out) {
  std::size_t i = 0;
  while (i < literal.size() &&
         (std::isdigit(static_cast<unsigned char>(literal[i])) ||
          literal[i] == '.')) {
    ++i;
  }
  if (i == 0 || i == literal.size()) {
    return false;
  }
  double value;
  try {
    std::size_t consumed;
    value = std::stod(literal.substr(0, i), &consumed);
    if (consumed != i) {
      return false;
    }
  } catch (...) {
    return false;
  }
  std::string unit = literal.substr(i);
  double scale;
  if (unit == "ns") {
    scale = 1.0;
  } else if (unit == "us") {
    scale = kMicrosecond;
  } else if (unit == "ms") {
    scale = kMillisecond;
  } else if (unit == "s") {
    scale = kSecond;
  } else {
    return false;
  }
  *out = static_cast<Tick>(std::llround(value * scale));
  return true;
}

}  // namespace autonet

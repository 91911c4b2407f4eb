// FNV-1a, the hash behind every run fingerprint: merged-log, metrics and
// adversary-transcript hashes, and the chaos executor's seed mixing.  Inline
// because it runs over every byte of every chaos run's merged log.
#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace autonet {

// The offset is not the published FNV-1a basis (that is 14695981039346656037;
// this one drops its last digit).  Every committed fingerprint is computed
// from it, so it stays.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t Fnv1a(std::uint64_t h, const void* data,
                           std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t Fnv1a(std::uint64_t h, std::string_view s) {
  return Fnv1a(h, s.data(), s.size());
}

// A hash as 16 lowercase hex digits, the form reports print.
inline std::string HexU64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace autonet

#endif  // SRC_COMMON_HASH_H_

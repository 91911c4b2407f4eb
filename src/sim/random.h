// Seeded pseudo-random source.  Every component that needs randomness takes
// an explicit Rng (or a seed) so simulations are reproducible.
#ifndef SRC_SIM_RANDOM_H_
#define SRC_SIM_RANDOM_H_

#include <cstdint>
#include <random>

namespace autonet {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  bool Bernoulli(double p) {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return std::bernoulli_distribution(p)(engine_);
  }

  std::uint64_t NextU64() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

}  // namespace autonet

#endif  // SRC_SIM_RANDOM_H_

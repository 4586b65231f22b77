#pragma once
// Deterministic random number generation for rgleak.
//
// All stochastic code in the library draws from rgleak::math::Rng, a
// xoshiro256++ engine seeded through SplitMix64. Keeping our own engine (rather
// than std::mt19937 + std::normal_distribution) guarantees bit-identical
// streams across standard libraries, which the test suite relies on.

#include <array>
#include <cstdint>
#include <vector>

namespace rgleak::math {

/// xoshiro256++ pseudo random generator (Blackman & Vigna). Deterministic for a
/// given seed across platforms. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  /// Standard normal via a 256-layer ziggurat: ~99% of draws cost one engine
  /// step plus a table compare, which keeps the MC field fill (~10^5 normals
  /// per trial draw) off the libm log/sqrt path.
  double normal();
  /// Normal with given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);
  /// Vector of iid standard normals.
  std::vector<double> normal_vector(std::size_t n);
  /// Fills out[0..n) with iid standard normals — same stream as n calls to
  /// normal(), without allocating (the MC hot path's workspace fill).
  void normal_fill(double* out, std::size_t n);
  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p);

  /// Forks an independent stream (seeded from this stream's output); used to
  /// give parallel experiments decorrelated generators.
  Rng fork();

  /// Complete engine state. Restoring it resumes the stream bit-identically.
  using State = std::array<std::uint64_t, 4>;
  State state() const { return state_; }
  void set_state(const State& st) { state_ = st; }

 private:
  /// Slow ziggurat path for a draw that failed its layer's fast-accept test:
  /// wedge accept/reject or explicit tail sampling, redrawing until accepted.
  double normal_slow(std::uint64_t draw);

  State state_;
};

}  // namespace rgleak::math

#include "math/rng.h"

#include <bit>
#include <cmath>

#include "util/require.h"

namespace rgleak::math {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// 256-layer ziggurat for the standard normal (Marsaglia & Tsang layout, 64-bit
// draws). One u64 supplies layer index, sign, and a 52-bit offset; ~99% of
// samples resolve with a single table compare and multiply, which is what makes
// the MC field fill (10^5 normals per trial draw) cheap. kZigR is the canonical
// base-strip edge for 256 layers: the layer recursion started there closes at
// the density peak.
constexpr int kZigLayers = 256;
constexpr double kZigR = 3.6541528853610088;
constexpr std::uint64_t kZigMantissaMask = (std::uint64_t{1} << 52) - 1;

struct ZigguratTables {
  std::array<std::uint64_t, kZigLayers> k;  // fast-accept thresholds on the 52-bit offset
  std::array<double, kZigLayers> w;         // offset -> x scale per layer
  std::array<double, kZigLayers + 1> f;     // exp(-x_i^2/2), ascending; f[256] = 1

  ZigguratTables() {
    const double fr = std::exp(-0.5 * kZigR * kZigR);
    // Common layer area: base rectangle plus the Gaussian tail beyond kZigR.
    const double v = kZigR * fr + std::sqrt(M_PI / 2.0) * std::erfc(kZigR / std::sqrt(2.0));
    std::array<double, kZigLayers + 1> x{};
    x[0] = v / fr;  // pseudo-width of the base strip (area v at height f(R))
    x[1] = kZigR;
    for (int i = 1; i + 1 < kZigLayers; ++i) {
      const double fi = std::exp(-0.5 * x[i] * x[i]);
      x[i + 1] = std::sqrt(-2.0 * std::log(fi + v / x[i]));
    }
    x[kZigLayers] = 0.0;
    for (int i = 0; i <= kZigLayers; ++i) f[i] = std::exp(-0.5 * x[i] * x[i]);
    for (int i = 0; i < kZigLayers; ++i) {
      const double edge = i == 0 ? kZigR : x[i + 1];
      k[i] = static_cast<std::uint64_t>(edge / x[i] * 0x1.0p52);
      w[i] = x[i] * 0x1.0p-52;
    }
  }
};

const ZigguratTables& zig() {
  static const ZigguratTables tables;
  return tables;
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

namespace {
/// One xoshiro256++ step on `s`. A local State copy stays in registers.
std::uint64_t next(Rng::State& s) {
  const std::uint64_t result = rotl(s[0] + s[3], 23) + s[0];
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

/// Ziggurat fast path: the draw's layer-box sample with its sign bit (draw
/// bit 8) XOR-ed into bit 63 — exactly `neg ? -x : x`, without the
/// unpredictable branch.
double signed_box_sample(std::uint64_t d, std::uint64_t off, double w) {
  const double x = static_cast<double>(off) * w;
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^ (((d >> 8) & 1) << 63));
}
}  // namespace

Rng::result_type Rng::operator()() { return next(state_); }

double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  RGLEAK_REQUIRE(lo <= hi, "uniform(lo,hi) needs lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  RGLEAK_REQUIRE(n > 0, "uniform_index needs n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t v;
  do {
    v = (*this)();
  } while (v >= limit);
  return v % n;
}

double Rng::normal() {
  const ZigguratTables& t = zig();
  const std::uint64_t d = (*this)();
  const std::size_t idx = d & (kZigLayers - 1);
  const std::uint64_t off = (d >> 9) & kZigMantissaMask;
  // Inside the layer's inscribed box: ~99% of draws.
  if (off < t.k[idx]) return signed_box_sample(d, off, t.w[idx]);
  return normal_slow(d);
}

double Rng::normal_slow(std::uint64_t d) {
  const ZigguratTables& t = zig();
  for (;;) {
    const std::size_t idx = d & (kZigLayers - 1);
    const bool neg = (d >> 8) & 1;
    const std::uint64_t off = (d >> 9) & kZigMantissaMask;
    const double x = static_cast<double>(off) * t.w[idx];
    if (off < t.k[idx]) return neg ? -x : x;  // retry landed in an inscribed box
    if (idx == 0) {
      // Base strip beyond kZigR: Marsaglia's exact tail sampler.
      double xx, yy;
      do {
        xx = -std::log(1.0 - uniform()) / kZigR;
        yy = -std::log(1.0 - uniform());
      } while (yy + yy < xx * xx);
      return neg ? -(kZigR + xx) : (kZigR + xx);
    }
    // Wedge between the inscribed box and the curve: exact accept/reject.
    const double y = t.f[idx] + uniform() * (t.f[idx + 1] - t.f[idx]);
    if (y < std::exp(-0.5 * x * x)) return neg ? -x : x;
    d = (*this)();
  }
}

double Rng::normal(double mean, double sigma) {
  RGLEAK_REQUIRE(sigma >= 0.0, "normal() needs sigma >= 0");
  return mean + sigma * normal();
}

std::vector<double> Rng::normal_vector(std::size_t n) {
  std::vector<double> out(n);
  normal_fill(out.data(), n);
  return out;
}

void Rng::normal_fill(double* out, std::size_t n) {
  // Identical stream (values and final state) to n calls of normal(). The
  // fast path is inlined with the engine state held in locals, so a bulk
  // fill (the MC field draw is ~10^5 normals) is register-resident and
  // branch-free apart from the ~1% slow-path exit, which syncs the state
  // around normal_slow().
  const ZigguratTables& t = zig();
  State s = state_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t d = next(s);
    const std::size_t idx = d & (kZigLayers - 1);
    const std::uint64_t off = (d >> 9) & kZigMantissaMask;
    if (off < t.k[idx]) [[likely]] {
      out[i] = signed_box_sample(d, off, t.w[idx]);
    } else {
      state_ = s;
      out[i] = normal_slow(d);
      s = state_;
    }
  }
  state_ = s;
}

bool Rng::bernoulli(double p) {
  RGLEAK_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli needs p in [0,1]");
  return uniform() < p;
}

Rng Rng::fork() { return Rng((*this)()); }

}  // namespace rgleak::math

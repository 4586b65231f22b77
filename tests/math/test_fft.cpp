#include "math/fft.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "math/rng.h"
#include "util/require.h"

namespace rgleak::math {
namespace {

using cvec = std::vector<std::complex<double>>;

// One-shot transforms through the plans.
void fft(cvec& v, bool inverse) {
  const FftPlan plan(v.size());
  cvec work(v.size());
  plan.run(v.data(), inverse, work.data());
}

void fft2d(cvec& v, std::size_t rows, std::size_t cols, bool inverse) {
  const FftPlan2D plan(rows, cols);
  cvec scratch;
  plan.run(v, inverse, scratch);
}

/// O(n^2) DFT oracle in long double with exactly reduced angles:
/// X_k = sum_j x_j exp(-+2 pi i jk / n), times 1/n for the inverse.
cvec naive_dft(const cvec& x, bool inverse) {
  const std::size_t n = x.size();
  const long double sign = inverse ? 1.0L : -1.0L;
  std::vector<long double> cos_t(n), sin_t(n);
  for (std::size_t m = 0; m < n; ++m) {
    const long double ang = sign * 2.0L * static_cast<long double>(M_PI) *
                            static_cast<long double>(m) / static_cast<long double>(n);
    cos_t[m] = std::cos(ang);
    sin_t[m] = std::sin(ang);
  }
  cvec out(n);
  for (std::size_t k = 0; k < n; ++k) {
    long double re = 0.0L, im = 0.0L;
    for (std::size_t j = 0; j < n; ++j) {
      const long double c = cos_t[(j * k) % n], s = sin_t[(j * k) % n];
      re += x[j].real() * c - x[j].imag() * s;
      im += x[j].real() * s + x[j].imag() * c;
    }
    const long double scale = inverse ? 1.0L / static_cast<long double>(n) : 1.0L;
    out[k] = {static_cast<double>(re * scale), static_cast<double>(im * scale)};
  }
  return out;
}

/// 2-D oracle: the naive DFT along every column, then along every row.
cvec naive_dft2d(const cvec& x, std::size_t rows, std::size_t cols, bool inverse) {
  cvec out = x, line(rows);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) line[r] = out[r * cols + c];
    line = naive_dft(line, inverse);
    for (std::size_t r = 0; r < rows; ++r) out[r * cols + c] = line[r];
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const cvec row(out.begin() + static_cast<std::ptrdiff_t>(r * cols),
                   out.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols));
    const cvec t = naive_dft(row, inverse);
    std::copy(t.begin(), t.end(), out.begin() + static_cast<std::ptrdiff_t>(r * cols));
  }
  return out;
}

/// max |got - want| / max |want| over the first `count` entries.
double relative_error(const cvec& got, const cvec& want, std::size_t count) {
  double err = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    err = std::max(err, std::abs(got[i] - want[i]));
    ref = std::max(ref, std::abs(want[i]));
  }
  return ref > 0.0 ? err / ref : err;
}

cvec random_cvec(Rng& rng, std::size_t n) {
  cvec v(n);
  for (auto& x : v) x = {rng.normal(), rng.normal()};
  return v;
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(17), 32u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_THROW(next_pow2(0), ContractViolation);
}

TEST(Fft, DeltaTransformsToConstant) {
  cvec v(8, {0.0, 0.0});
  v[0] = {1.0, 0.0};
  fft(v, false);
  for (const auto& x : v) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantTransformsToDelta) {
  cvec v(8, {1.0, 0.0});
  fft(v, false);
  EXPECT_NEAR(v[0].real(), 8.0, 1e-12);
  for (std::size_t i = 1; i < 8; ++i) EXPECT_NEAR(std::abs(v[i]), 0.0, 1e-12);
}

TEST(Fft, SingleToneBin) {
  const std::size_t n = 64;
  cvec v(n);
  for (std::size_t j = 0; j < n; ++j)
    v[j] = {std::cos(2.0 * M_PI * 5.0 * static_cast<double>(j) / n), 0.0};
  fft(v, false);
  EXPECT_NEAR(v[5].real(), n / 2.0, 1e-9);
  EXPECT_NEAR(v[n - 5].real(), n / 2.0, 1e-9);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != 5 && k != n - 5) {
      EXPECT_NEAR(std::abs(v[k]), 0.0, 1e-9);
    }
  }
}

TEST(Fft, RoundTrip) {
  Rng rng(3);
  cvec v(128);
  for (auto& x : v) x = {rng.normal(), rng.normal()};
  const cvec orig = v;
  fft(v, false);
  fft(v, true);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(v[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, Parseval) {
  Rng rng(5);
  cvec v(256);
  double time_energy = 0.0;
  for (auto& x : v) {
    x = {rng.normal(), rng.normal()};
    time_energy += std::norm(x);
  }
  fft(v, false);
  double freq_energy = 0.0;
  for (const auto& x : v) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy, 256.0 * time_energy, 1e-6 * freq_energy);
}

TEST(FftPlan2D, SeparableTransform) {
  // FFT2D of an outer product equals the outer product of the 1-D FFTs.
  const std::size_t n = 8;
  cvec row(n), col(n);
  Rng rng(9);
  for (auto& x : row) x = {rng.normal(), 0.0};
  for (auto& x : col) x = {rng.normal(), 0.0};
  cvec grid(n * n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) grid[r * n + c] = col[r] * row[c];
  fft2d(grid, n, n, false);
  cvec frow = row, fcol = col;
  fft(frow, false);
  fft(fcol, false);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_NEAR(std::abs(grid[r * n + c] - fcol[r] * frow[c]), 0.0, 1e-9);
}

TEST(FftPlan2D, RejectsSizeMismatch) {
  cvec v(15);
  EXPECT_THROW(fft2d(v, 4, 4, false), ContractViolation);
}

TEST(FftPlan, MatchesNaiveDftForEveryPow2UpTo2048) {
  // Even log2 sizes run pure radix-4 stages; odd ones end with the radix-2
  // stage. Both must agree with the O(n^2) DFT to rounding.
  Rng rng(11);
  for (std::size_t n = 1; n <= 2048; n *= 2) {
    const FftPlan plan(n);
    for (const bool inverse : {false, true}) {
      const cvec x = random_cvec(rng, n);
      cvec a = x, work(n);
      plan.run(a.data(), inverse, work.data());
      EXPECT_LE(relative_error(a, naive_dft(x, inverse), n), 1e-12)
          << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(FftPlan, RejectsNonPow2) { EXPECT_THROW(FftPlan(6), ContractViolation); }

TEST(FftPlan2D, MatchesNaiveDft) {
  Rng rng(13);
  const std::size_t rows = 16, cols = 32;
  const FftPlan2D plan(rows, cols);
  for (const bool inverse : {false, true}) {
    const cvec x = random_cvec(rng, rows * cols);
    cvec a = x, scratch;
    plan.run(a, inverse, scratch);
    EXPECT_LE(relative_error(a, naive_dft2d(x, rows, cols, inverse), a.size()), 1e-12)
        << "inverse=" << inverse;
  }
}

TEST(FftPlan2D, ColMajorPrunedMatchesNaiveDftOnNonSquareGrid) {
  // The sampler's shape: a tall-stride column pass (512-point columns here
  // are the rows of a 64x512 grid transposed), an odd row count kept.
  Rng rng(29);
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{64, 512}, {512, 64}}) {
    const FftPlan2D plan(rows, cols);
    const std::size_t keep = 37;
    for (const bool inverse : {false, true}) {
      const cvec x = random_cvec(rng, rows * cols);
      cvec colmajor(rows * cols), out;
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c) colmajor[c * rows + r] = x[r * cols + c];
      plan.run_top_rows_colmajor(colmajor, inverse, out, keep);
      EXPECT_LE(relative_error(out, naive_dft2d(x, rows, cols, inverse), keep * cols), 1e-12)
          << rows << "x" << cols << " inverse=" << inverse;
    }
  }
}

TEST(FftPlan2D, RoundTripIsExactToTolerance) {
  Rng rng(17);
  const std::size_t rows = 32, cols = 16;
  const FftPlan2D plan(rows, cols);
  cvec v(rows * cols), scratch;
  for (auto& x : v) x = {rng.normal(), rng.normal()};
  const cvec orig = v;
  plan.run(v, false, scratch);
  plan.run(v, true, scratch);
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_NEAR(std::abs(v[i] - orig[i]), 0.0, 1e-10);
}

TEST(FftPlan2D, ColMajorVariantIsBitIdenticalOnKeptRows) {
  // Feeding the input pre-transposed must reproduce run()'s bits exactly on
  // the kept rows — the field sampler generates its noise column-major and
  // relies on this equivalence.
  Rng rng(23);
  const std::size_t rows = 32, cols = 16, keep = 7;
  const FftPlan2D plan(rows, cols);
  for (const bool inverse : {false, true}) {
    cvec rowmajor(rows * cols), colmajor(rows * cols), out, scratch;
    for (auto& x : rowmajor) x = {rng.normal(), rng.normal()};
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c) colmajor[c * rows + r] = rowmajor[r * cols + c];
    plan.run(rowmajor, inverse, scratch);
    plan.run_top_rows_colmajor(colmajor, inverse, out, keep);
    for (std::size_t r = 0; r < keep; ++r)
      for (std::size_t c = 0; c < cols; ++c) {
        EXPECT_EQ(rowmajor[r * cols + c].real(), out[r * cols + c].real());
        EXPECT_EQ(rowmajor[r * cols + c].imag(), out[r * cols + c].imag());
      }
  }
}

TEST(FftPlan2D, ConcurrentSharedPlan) {
  // MC workers share one immutable plan, each with its own buffers: four
  // threads running it at once must reproduce the serial bits exactly.
  Rng rng(31);
  const std::size_t rows = 128, cols = 64, keep = 45;
  const FftPlan2D plan(rows, cols);
  constexpr int kThreads = 4, kRounds = 8;
  std::vector<cvec> inputs(kThreads), want(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    inputs[t] = random_cvec(rng, rows * cols);
    cvec data = inputs[t];
    plan.run_top_rows_colmajor(data, /*inverse=*/true, want[t], keep);
  }
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      cvec data, out;
      for (int round = 0; round < kRounds; ++round) {
        data = inputs[t];
        plan.run_top_rows_colmajor(data, /*inverse=*/true, out, keep);
        for (std::size_t i = 0; i < keep * cols; ++i)
          if (out[i] != want[t][i]) ++mismatches[t];
      }
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

TEST(CrossCorrelator2D, MatchesBruteForceOnRandomGrids) {
  Rng rng(7);
  for (const auto [rows, cols] : {std::pair<std::size_t, std::size_t>{4, 4},
                                  {3, 7},
                                  {1, 5},
                                  {6, 2}}) {
    std::vector<double> a(rows * cols), b(rows * cols);
    for (auto& x : a) x = rng.normal();
    for (auto& x : b) x = rng.normal();
    const CrossCorrelator2D xc(rows, cols);
    const std::vector<double> got = xc.correlate(xc.transform(a), xc.transform(b));
    ASSERT_EQ(got.size(), (2 * rows - 1) * (2 * cols - 1));
    for (std::ptrdiff_t dr = -(std::ptrdiff_t)(rows - 1); dr < (std::ptrdiff_t)rows; ++dr)
      for (std::ptrdiff_t dc = -(std::ptrdiff_t)(cols - 1); dc < (std::ptrdiff_t)cols; ++dc) {
        double want = 0.0;
        for (std::size_t r = 0; r < rows; ++r)
          for (std::size_t c = 0; c < cols; ++c) {
            const std::ptrdiff_t r2 = (std::ptrdiff_t)r + dr, c2 = (std::ptrdiff_t)c + dc;
            if (r2 < 0 || c2 >= (std::ptrdiff_t)cols || c2 < 0 ||
                r2 >= (std::ptrdiff_t)rows)
              continue;
            want += a[r * cols + c] * b[(std::size_t)r2 * cols + (std::size_t)c2];
          }
        const std::size_t idx =
            (std::size_t)(dr + (std::ptrdiff_t)rows - 1) * (2 * cols - 1) +
            (std::size_t)(dc + (std::ptrdiff_t)cols - 1);
        EXPECT_NEAR(got[idx], want, 1e-9) << rows << "x" << cols << " d=(" << dr << "," << dc
                                          << ")";
      }
  }
}

TEST(CrossCorrelator2D, IndicatorGridCountsAreIntegers) {
  // The estimator relies on indicator-grid correlations landing on integers
  // to FFT precision.
  const std::size_t rows = 8, cols = 8;
  std::vector<double> occ(rows * cols, 0.0);
  Rng rng(9);
  for (std::size_t i = 0; i < occ.size(); ++i) occ[i] = rng.uniform() < 0.4 ? 1.0 : 0.0;
  const CrossCorrelator2D xc(rows, cols);
  const std::vector<double> counts = xc.correlate(xc.transform(occ), xc.transform(occ));
  for (double c : counts) EXPECT_NEAR(c, std::round(c), 1e-7);
}

}  // namespace
}  // namespace rgleak::math

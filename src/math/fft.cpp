#include "math/fft.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/failpoint.h"
#include "util/require.h"

namespace rgleak::math {

namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// The kernel works on interleaved (re, im) doubles — the layout a
// std::complex<double> array is guaranteed to have — with the complex
// arithmetic written out: std::complex's operator* carries a NaN fix-up call
// (__muldc3) on every multiply unless -ffast-math is on.
struct Cx {
  double re, im;
};
inline Cx ld(const double* p) { return {p[0], p[1]}; }
inline void st(double* p, Cx v) {
  p[0] = v.re;
  p[1] = v.im;
}
inline Cx operator+(Cx a, Cx b) { return {a.re + b.re, a.im + b.im}; }
inline Cx operator-(Cx a, Cx b) { return {a.re - b.re, a.im - b.im}; }
inline Cx scaled(Cx a, double k) { return {a.re * k, a.im * k}; }
/// a * w forward, a * conj(w) inverse.
template <bool Inverse>
inline Cx twiddle(Cx a, Cx w) {
  if constexpr (Inverse) return {a.re * w.re + a.im * w.im, a.im * w.re - a.re * w.im};
  return {a.re * w.re - a.im * w.im, a.re * w.im + a.im * w.re};
}
/// -i * a forward, +i * a inverse: the odd DFT-4 rotation.
template <bool Inverse>
inline Cx rot(Cx a) {
  if constexpr (Inverse) return {-a.im, a.re};
  return {a.im, -a.re};
}

/// DFT-4 of (a, b, c, d) in output order 0..3.
template <bool Inverse>
inline void dft4(Cx a, Cx b, Cx c, Cx d, Cx& y0, Cx& y1, Cx& y2, Cx& y3) {
  const Cx apc = a + c, amc = a - c, bpd = b + d, jbmd = rot<Inverse>(b - d);
  y0 = apc + bpd;
  y1 = amc + jbmd;
  y2 = apc - bpd;
  y3 = amc - jbmd;
}

/// One twiddled Stockham radix-4 stage over sub-transforms of length 4m at
/// stride s (decimation in frequency):
///   y[q + s(4p + k)] = w^{kp} * DFT4_k(x[q + s(p + jm)], j = 0..3).
template <bool Inverse>
void radix4_stage(const double* x, double* y, std::size_t m, std::size_t s, const double* tw) {
  const std::size_t sm = 2 * s * m;  // doubles between the four inputs
  for (std::size_t p = 0; p < m; ++p) {
    const Cx w1 = ld(tw + 6 * p), w2 = ld(tw + 6 * p + 2), w3 = ld(tw + 6 * p + 4);
    const double* xp = x + 2 * s * p;
    double* yp = y + 8 * s * p;
    for (std::size_t q = 0; q < 2 * s; q += 2) {
      Cx y0, y1, y2, y3;
      dft4<Inverse>(ld(xp + q), ld(xp + q + sm), ld(xp + q + 2 * sm), ld(xp + q + 3 * sm), y0, y1,
                    y2, y3);
      st(yp + q, y0);
      st(yp + q + 2 * s, twiddle<Inverse>(y1, w1));
      st(yp + q + 4 * s, twiddle<Inverse>(y2, w2));
      st(yp + q + 6 * s, twiddle<Inverse>(y3, w3));
    }
  }
}

/// The last stage (length 4 or 2, unit twiddles): butterfly q reads and
/// writes only positions q + s*k, so it runs in place as well as out of
/// place. `scale` folds the inverse 1/n into the stage.
template <bool Inverse>
void last_stage(const double* x, double* y, std::size_t len, std::size_t s, double scale) {
  const auto out = [scale](Cx v) { return Inverse ? scaled(v, scale) : v; };
  if (len == 4) {
    for (std::size_t q = 0; q < 2 * s; q += 2) {
      Cx y0, y1, y2, y3;
      dft4<Inverse>(ld(x + q), ld(x + q + 2 * s), ld(x + q + 4 * s), ld(x + q + 6 * s), y0, y1,
                    y2, y3);
      st(y + q, out(y0));
      st(y + q + 2 * s, out(y1));
      st(y + q + 4 * s, out(y2));
      st(y + q + 6 * s, out(y3));
    }
  } else {
    for (std::size_t q = 0; q < 2 * s; q += 2) {
      const Cx a = ld(x + q), b = ld(x + q + 2 * s);
      st(y + q, out(a + b));
      st(y + q + 2 * s, out(a - b));
    }
  }
}

/// Cache-blocked out-of-place transpose of a rows x cols row-major array,
/// writing only the first `dst_rows` rows of the transposed result (i.e. the
/// first dst_rows columns of src). The column-major 2-D path uses it to
/// bring its column-pass results back to rows, and dst_rows to skip the
/// back-transpose of rows nobody will read.
void blocked_transpose(const std::complex<double>* src, std::complex<double>* dst,
                       std::size_t rows, std::size_t cols, std::size_t dst_rows) {
  constexpr std::size_t kBlock = 16;
  const std::size_t jn = std::min(dst_rows, cols);
  for (std::size_t i0 = 0; i0 < rows; i0 += kBlock) {
    const std::size_t i1 = std::min(i0 + kBlock, rows);
    for (std::size_t j0 = 0; j0 < jn; j0 += kBlock) {
      const std::size_t j1 = std::min(j0 + kBlock, jn);
      for (std::size_t i = i0; i < i1; ++i)
        for (std::size_t j = j0; j < j1; ++j) dst[j * rows + i] = src[i * cols + j];
    }
  }
}

/// Linear-correlation padding of one axis: no wrap-around for any offset.
std::size_t correlation_pad(std::size_t n) {
  RGLEAK_REQUIRE(n >= 1, "cross-correlation needs a non-empty grid");
  return next_pow2(2 * n - 1);
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  RGLEAK_REQUIRE(n >= 1, "next_pow2 needs n >= 1");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

FftPlan::FftPlan(std::size_t n) : n_(n) {
  RGLEAK_REQUIRE(is_pow2(n), "fft plan size must be a power of two");
  // The twiddle table is the plan's arena; an injected (or real) bad_alloc
  // here is translated to ResourceError by callers.
  RGLEAK_FAILPOINT("math.fft.plan.alloc");
  std::size_t entries = 0;
  for (std::size_t len = n; len > 4; len /= 4) entries += 3 * (len / 4);
  twiddle_.reserve(entries);
  for (std::size_t len = n; len > 4; len /= 4)
    for (std::size_t p = 0; p < len / 4; ++p)
      for (std::size_t k = 1; k <= 3; ++k)
        twiddle_.push_back(std::polar(
            1.0, -2.0 * M_PI * static_cast<double>(k * p) / static_cast<double>(len)));
}

template <bool Inverse>
void FftPlan::run_impl(double* a, double* work) const {
  if (n_ <= 1) return;
  // Twiddled stages ping-pong a -> work -> a ...; the in-place-capable last
  // stage then always lands the result back in `a`.
  const double* tw = reinterpret_cast<const double*>(twiddle_.data());
  double* src = a;
  double* dst = work;
  std::size_t len = n_, s = 1;
  for (; len > 4; len /= 4, s *= 4) {
    radix4_stage<Inverse>(src, dst, len / 4, s, tw);
    tw += 2 * 3 * (len / 4);
    std::swap(src, dst);
  }
  last_stage<Inverse>(src, a, len, s, 1.0 / static_cast<double>(n_));
}

void FftPlan::run(std::complex<double>* a, bool inverse, std::complex<double>* work) const {
  double* ar = reinterpret_cast<double*>(a);
  double* wr = reinterpret_cast<double*>(work);
  if (inverse)
    run_impl<true>(ar, wr);
  else
    run_impl<false>(ar, wr);
}

FftPlan2D::FftPlan2D(std::size_t rows, std::size_t cols) : row_fft_(cols), col_fft_(rows) {}

void FftPlan2D::run(std::vector<std::complex<double>>& data, bool inverse,
                    std::vector<std::complex<double>>& scratch) const {
  const std::size_t r_n = rows(), c_n = cols();
  RGLEAK_REQUIRE(data.size() == r_n * c_n, "fft2d plan: data size mismatch");
  // In place, columns first like run_top_rows_colmajor, so both paths do the
  // same arithmetic on the same values. Columns go kTile at a time through
  // contiguous lines: a 16-wide gather reads whole cache lines, where a
  // single power-of-two-strided column maps onto a handful of L1 sets.
  constexpr std::size_t kTile = 16;
  const std::size_t tile = std::min(kTile, c_n);  // both powers of two: divides c_n
  scratch.resize(tile * r_n + std::max(r_n, c_n));
  std::complex<double>* lines = scratch.data();
  std::complex<double>* work = lines + tile * r_n;
  for (std::size_t c0 = 0; c0 < c_n; c0 += tile) {
    for (std::size_t r = 0; r < r_n; ++r)
      for (std::size_t j = 0; j < tile; ++j) lines[j * r_n + r] = data[r * c_n + c0 + j];
    for (std::size_t j = 0; j < tile; ++j) col_fft_.run(lines + j * r_n, inverse, work);
    for (std::size_t r = 0; r < r_n; ++r)
      for (std::size_t j = 0; j < tile; ++j) data[r * c_n + c0 + j] = lines[j * r_n + r];
  }
  for (std::size_t r = 0; r < r_n; ++r) row_fft_.run(data.data() + r * c_n, inverse, work);
}

void FftPlan2D::run_top_rows_colmajor(std::vector<std::complex<double>>& data, bool inverse,
                                      std::vector<std::complex<double>>& out,
                                      std::size_t keep_rows) const {
  const std::size_t r_n = rows(), c_n = cols();
  RGLEAK_REQUIRE(data.size() == r_n * c_n, "fft2d plan: data size mismatch");
  out.resize(r_n * c_n);
  const std::size_t kr = std::min(keep_rows, r_n);
  // `out` is idle until the transpose and `data` after it: each lends its
  // head as the 1-D passes' ping-pong line.
  for (std::size_t c = 0; c < c_n; ++c) col_fft_.run(data.data() + c * r_n, inverse, out.data());
  blocked_transpose(data.data(), out.data(), c_n, r_n, kr);
  for (std::size_t r = 0; r < kr; ++r) row_fft_.run(out.data() + r * c_n, inverse, data.data());
}

CrossCorrelator2D::CrossCorrelator2D(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), plan_(correlation_pad(rows), correlation_pad(cols)) {}

std::vector<std::complex<double>> CrossCorrelator2D::transform(
    const std::vector<double>& grid) const {
  RGLEAK_REQUIRE(grid.size() == rows_ * cols_, "cross-correlation: grid size mismatch");
  const std::size_t pad_cols = plan_.cols();
  std::vector<std::complex<double>> padded(plan_.rows() * pad_cols), scratch;
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) padded[r * pad_cols + c] = grid[r * cols_ + c];
  plan_.run(padded, /*inverse=*/false, scratch);
  return padded;
}

std::vector<double> CrossCorrelator2D::correlate(
    const std::vector<std::complex<double>>& fa,
    const std::vector<std::complex<double>>& fb) const {
  const std::size_t pad_rows = plan_.rows(), pad_cols = plan_.cols();
  RGLEAK_REQUIRE(fa.size() == pad_rows * pad_cols && fb.size() == fa.size(),
                 "cross-correlation: transform size mismatch");
  std::vector<std::complex<double>> prod(fa.size()), scratch;
  for (std::size_t i = 0; i < fa.size(); ++i) prod[i] = std::conj(fa[i]) * fb[i];
  plan_.run(prod, /*inverse=*/true, scratch);

  // Circular result: offset (dr, dc) lives at ((dr mod R), (dc mod C)); the
  // padding guarantees the residues of the valid offsets are distinct.
  std::vector<double> out(out_rows() * out_cols());
  for (std::ptrdiff_t dr = -(static_cast<std::ptrdiff_t>(rows_) - 1);
       dr < static_cast<std::ptrdiff_t>(rows_); ++dr) {
    const std::size_t src_r =
        static_cast<std::size_t>(dr + static_cast<std::ptrdiff_t>(pad_rows)) % pad_rows;
    for (std::ptrdiff_t dc = -(static_cast<std::ptrdiff_t>(cols_) - 1);
         dc < static_cast<std::ptrdiff_t>(cols_); ++dc) {
      const std::size_t src_c =
          static_cast<std::size_t>(dc + static_cast<std::ptrdiff_t>(pad_cols)) % pad_cols;
      out[static_cast<std::size_t>(dr + static_cast<std::ptrdiff_t>(rows_) - 1) * out_cols() +
          static_cast<std::size_t>(dc + static_cast<std::ptrdiff_t>(cols_) - 1)] =
          prod[src_r * pad_cols + src_c].real();
    }
  }
  return out;
}

}  // namespace rgleak::math

#pragma once
// Complex FFT plans (1-D and 2-D, power-of-two lengths): a Stockham radix-4
// kernel with one trailing radix-2 stage for odd log2 sizes. Substrate for
// the circulant-embedding sampler of spatially correlated channel-length
// fields (process module) and the exact estimator's cross-correlations.

#include <complex>
#include <cstddef>
#include <vector>

namespace rgleak::math {

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// Precomputed FFT plan for one power-of-two length. The transform is a
/// Stockham autosort: each radix-4 stage reads one buffer and writes the
/// other in natural order (no bit-reversal pass), so a 512-point transform
/// makes 5 passes over memory instead of radix-2's 9 plus a permutation.
/// Per-stage twiddles are precomputed (no `w *= w_len` recurrence), and the
/// complex arithmetic is written out in re/im form.
///
/// Immutable after construction and shared between threads: the ping-pong
/// line is caller-owned, so run() is allocation-free and race-free.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);  // n must be a power of two

  std::size_t size() const { return n_; }

  /// Bytes held by the precomputed twiddle table (fewer than n complex
  /// values). The memory cost model charges plans by this, not by transform
  /// length, so budget accounting matches what the plan actually pins.
  std::size_t plan_bytes() const { return twiddle_.capacity() * sizeof(std::complex<double>); }

  /// In-place transform of `a[0..n)`; `work[0..n)` is the ping-pong line
  /// and holds garbage on return. Forward uses exp(-2 pi i jk/n); `inverse`
  /// conjugates the twiddles and applies 1/n.
  void run(std::complex<double>* a, bool inverse, std::complex<double>* work) const;

 private:
  template <bool Inverse>
  void run_impl(double* a, double* work) const;

  std::size_t n_;
  /// w^p, w^2p, w^3p (w = exp(-2 pi i / len)) for p < len/4 of every
  /// twiddled radix-4 stage len = n, n/4, ... > 4, stage after stage. The
  /// final stage (len 4 or 2) has unit twiddles and needs no table.
  std::vector<std::complex<double>> twiddle_;
};

/// Precomputed 2-D FFT plan over a rows x cols row-major array, with
/// caller-owned scratch: zero allocations per call once the scratch has
/// warmed up. Immutable and shareable between workers. The 1-D passes take
/// their ping-pong line from the scratch or from a grid buffer that is idle
/// at the time, so no worker pins extra lines.
class FftPlan2D {
 public:
  FftPlan2D(std::size_t rows, std::size_t cols);  // both powers of two

  std::size_t rows() const { return col_fft_.size(); }
  std::size_t cols() const { return row_fft_.size(); }

  /// Bytes pinned by the two 1-D plans (see FftPlan::plan_bytes).
  std::size_t plan_bytes() const { return row_fft_.plan_bytes() + col_fft_.plan_bytes(); }

  /// Full 2-D transform in place. `scratch` grows to 16 columns plus one
  /// line (17 * max(rows, cols) complex values at most) and is reused.
  void run(std::vector<std::complex<double>>& data, bool inverse,
           std::vector<std::complex<double>>& scratch) const;

  /// Output-pruned transform for callers that can produce their input
  /// already transposed (`data[c * rows() + r]` holds grid point (r, c)):
  /// the column transforms run contiguously in place with no input
  /// transpose, and only rows [0, keep_rows) are transposed back and
  /// row-transformed. On return `out` is row-major with rows [0, keep_rows)
  /// bit-identical to what run() leaves; rows >= keep_rows are unspecified.
  /// `data` is consumed (holds column-pass intermediates). The circulant
  /// field sampler reads only the top rows of its padded grid, which makes
  /// most of the last pass dead work.
  void run_top_rows_colmajor(std::vector<std::complex<double>>& data, bool inverse,
                             std::vector<std::complex<double>>& out, std::size_t keep_rows) const;

 private:
  FftPlan row_fft_;  // length-cols transform applied to each row
  FftPlan col_fft_;  // length-rows transform applied to each column
};

/// Linear (zero-padded, non-circular) 2-D cross-correlation of real
/// rows x cols grids via the FFT. Splitting the transform from the product
/// lets callers correlate T grids pairwise with T forward transforms instead
/// of one per pair (the exact-estimator offset histogram does exactly this).
class CrossCorrelator2D {
 public:
  CrossCorrelator2D(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Output dims: signed offsets dr in [-(rows-1), rows-1], dc likewise.
  std::size_t out_rows() const { return 2 * rows_ - 1; }
  std::size_t out_cols() const { return 2 * cols_ - 1; }

  /// Forward transform of a row-major rows x cols real grid, zero-padded to
  /// the internal power-of-two dims.
  std::vector<std::complex<double>> transform(const std::vector<double>& grid) const;

  /// Cross-correlation from two forward transforms:
  ///   out(dr, dc) = sum_{r,c} a(r, c) * b(r + dr, c + dc),
  /// returned row-major on an out_rows() x out_cols() grid with (0, 0) at
  /// index (rows()-1, cols()-1).
  std::vector<double> correlate(const std::vector<std::complex<double>>& fa,
                                const std::vector<std::complex<double>>& fb) const;

 private:
  std::size_t rows_, cols_;
  FftPlan2D plan_;  // padded dims: next_pow2(2n - 1) per axis
};

}  // namespace rgleak::math

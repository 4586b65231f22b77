#pragma once
// Bracketed scalar root-finding for the network solver (device/network.cpp).
// Internal to the device module; exposed in a header so tests can drive the
// root-finder directly.

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "util/error.h"

namespace rgleak::device::detail {

// Bracket [lo, hi] of a sign change: f(lo) <= 0 < f(hi).
struct Bracket {
  double lo;
  double hi;
};

// Iteration cap of brent() on `br` with absolute tolerance `abs_tol`:
// Brent's bound of (k+1)^2 function evaluations, where k is the number of
// bisection steps that shrink the bracket below abs_tol. Reaching it means
// the bracket stopped shrinking (f not monotone or not evaluated
// consistently), not that the solve was merely slow.
inline int brent_iteration_cap(Bracket br, double abs_tol) {
  const double k = std::ceil(std::log2((br.hi - br.lo) / abs_tol));
  // NaN or a bracket narrower than abs_tol: no bisection needed. A double
  // interval halves at most ~2100 times before it is a single ulp.
  const double steps = k > 0.0 ? std::min(k, 2100.0) : 0.0;
  return static_cast<int>((steps + 1.0) * (steps + 1.0));
}

// Brent's method (zeroin) on a bracket with f(lo) <= 0 < f(hi), run until the
// bracket is narrower than 4 eps |x| + abs_tol. f may return +inf on the high
// side; interpolation then gives way to bisection. Returns the final bracket,
// not a point, so callers can tell which side of it any other abscissa falls
// on. Throws NumericalError (naming `what`) after `max_iter` iterations.
template <class F>
Bracket brent(F&& f, Bracket br, double f_lo, double f_hi, double abs_tol, int max_iter,
              const char* what) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  double a = br.lo, fa = f_lo, b = br.hi, fb = f_hi, c = a, fc = fa;
  double d = b - a, e = d;
  for (int it = 0;; ++it) {
    if ((fb > 0.0) == (fc > 0.0)) {
      c = a;
      fc = fa;
      d = e = b - a;
    }
    if (std::abs(fc) < std::abs(fb)) {
      a = b;
      b = c;
      c = a;
      fa = fb;
      fb = fc;
      fc = fa;
    }
    const double tol = 2.0 * kEps * std::abs(b) + 0.5 * abs_tol;
    const double m = 0.5 * (c - b);
    if (std::abs(m) <= tol) break;
    if (it == max_iter) {
      std::ostringstream os;
      os << "network solve (" << what << ") did not converge in " << max_iter
         << " iterations; bracket [" << std::min(b, c) << ", " << std::max(b, c) << "]";
      throw NumericalError(os.str());
    }
    if (std::abs(e) >= tol && std::abs(fa) > std::abs(fb) && std::isfinite(fa) &&
        std::isfinite(fc)) {
      // Secant (two points) or inverse quadratic interpolation (three).
      const double s = fb / fa;
      double p, q;
      if (a == c) {
        p = 2.0 * m * s;
        q = 1.0 - s;
      } else {
        const double qa = fa / fc, r = fb / fc;
        p = s * (2.0 * m * qa * (qa - r) - (b - a) * (r - 1.0));
        q = (qa - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0.0) {
        q = -q;
      } else {
        p = -p;
      }
      if (2.0 * p < std::min(3.0 * m * q - std::abs(tol * q), std::abs(e * q))) {
        e = d;
        d = p / q;
      } else {
        d = e = m;
      }
    } else {
      d = e = m;
    }
    a = b;
    fa = fb;
    b += std::abs(d) > tol ? d : (m > 0.0 ? tol : -tol);
    fb = f(b);
  }
  return fb > 0.0 ? Bracket{c, b} : Bracket{b, c};
}

// brent() capped at brent_iteration_cap().
template <class F>
Bracket brent(F&& f, Bracket br, double f_lo, double f_hi, double abs_tol, const char* what) {
  return brent(std::forward<F>(f), br, f_lo, f_hi, abs_tol, brent_iteration_cap(br, abs_tol),
               what);
}

}  // namespace rgleak::device::detail

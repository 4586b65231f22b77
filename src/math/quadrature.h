#pragma once
// Numerical integration used by the constant-time leakage estimators:
//  - adaptive Simpson in 1-D (polar form, eq. 25/26 of the paper),
//  - Gauss–Legendre panels in 2-D (rectangular form, eq. 20).

#include <cstddef>
#include <functional>
#include <vector>

namespace rgleak::math {

/// Options for the adaptive integrators.
struct QuadratureOptions {
  double abs_tol = 1e-10;
  double rel_tol = 1e-9;
};

/// Adaptive Simpson integration of f over [a, b]. Throws NumericalError when
/// the requested tolerance cannot be met within a fixed evaluation budget
/// (about a million evaluations), or when f is not finite.
double integrate_adaptive(const std::function<double(double)>& f, double a, double b,
                          const QuadratureOptions& opts = {});

/// Nodes/weights of an n-point Gauss–Legendre rule on [-1, 1]
/// (computed by Newton iteration on the Legendre polynomial).
struct GaussLegendreRule {
  std::vector<double> nodes;
  std::vector<double> weights;
};
GaussLegendreRule gauss_legendre(std::size_t n);

/// Fixed-order Gauss–Legendre integration of f over [a, b].
double integrate_gauss(const std::function<double(double)>& f, double a, double b,
                       std::size_t order);

/// 2-D integration of f(x, y) over [ax, bx] x [ay, by] using a tensor-product
/// Gauss–Legendre rule on a panels_x x panels_y subdivision. Deterministic cost:
/// panels_x * panels_y * order^2 evaluations.
double integrate_2d(const std::function<double(double, double)>& f, double ax, double bx,
                    double ay, double by, std::size_t order = 16, std::size_t panels_x = 8,
                    std::size_t panels_y = 8);

/// 2-D integration with automatic panel refinement: doubles the panel count
/// until two successive estimates agree to the given tolerances (or max_level
/// refinements have been performed).
double integrate_2d_adaptive(const std::function<double(double, double)>& f, double ax,
                             double bx, double ay, double by,
                             const QuadratureOptions& opts = {}, std::size_t order = 12,
                             std::size_t max_level = 6);

}  // namespace rgleak::math

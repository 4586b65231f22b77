#pragma once
// Test-only oracle: the original nested-bisection network solver.
//
// This is the solver device/network.cpp shipped before the bracketed
// root-finder replaced it, kept verbatim (validation aside) so the suite can
// assert that the fast solver reproduces its answers, including the
// node-voltage quantization of the two-element fast path that the recorded
// corner references depend on. Slow: ~1 ms per cell solve, ~14 ms for a full
// adder.

#include <cstdint>
#include <vector>

#include "cells/cell.h"
#include "device/network.h"

namespace rgleak::device::legacy {

/// Current (nA) through `network` from `v_hi_v` down to `v_lo_v`, solved by
/// the original bisection scheme.
double network_current(const Network& network, const NetworkEvalContext& ctx, double v_lo_v,
                       double v_hi_v);

using NetworkSolver = double (*)(const Network&, const NetworkEvalContext&, double, double);

/// The leakage of every stage of `cell` in `state` (the off network of a CMOS
/// stage, or the rail path), each solved by `solve` with the context
/// Cell::leakage_na builds. Gate tunneling is not included.
std::vector<double> stage_currents(const cells::Cell& cell, std::uint32_t state, double l_nm,
                                   const TechnologyParams& tech, NetworkSolver solve);

}  // namespace rgleak::device::legacy

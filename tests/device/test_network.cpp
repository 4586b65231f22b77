#include "device/network.h"
#include "device/root_finding.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/require.h"

namespace rgleak::device {
namespace {

const TechnologyParams kTech{};

NetworkDevice nmos(int gate, double w = 120.0) {
  NetworkDevice d;
  d.type = DeviceType::kNmos;
  d.gate_signal = gate;
  d.w_nm = w;
  return d;
}

NetworkDevice pmos(int gate, double w = 200.0) {
  NetworkDevice d;
  d.type = DeviceType::kPmos;
  d.gate_signal = gate;
  d.w_nm = w;
  return d;
}

struct Ctx {
  std::vector<double> volts;
  NetworkEvalContext ctx;
  explicit Ctx(std::vector<double> v) : volts(std::move(v)) {
    ctx.tech = &kTech;
    ctx.gate_voltage_v = volts;
    ctx.l_nm = 40.0;
  }
};

TEST(Network, SingleOffDeviceMatchesFormula) {
  const Network n = Network::device(nmos(0));
  Ctx c({0.0});
  const double i = network_current(n, c.ctx, 0.0, 1.0);
  EXPECT_NEAR(i, subthreshold_current(kTech, DeviceType::kNmos, 120, 40, 0.0, 1.0, 0.0),
              1e-9 * i);
}

TEST(Network, SingleOffPmosMatchesFormula) {
  const Network n = Network::device(pmos(0));
  Ctx c({1.0});  // PMOS gate at VDD -> off
  const double i = network_current(n, c.ctx, 0.0, 1.0);
  EXPECT_NEAR(i, subthreshold_current(kTech, DeviceType::kPmos, 200, 40, 0.0, 1.0, 0.0),
              1e-9 * i);
}

TEST(Network, ParallelSumsCurrents) {
  const Network a = Network::device(nmos(0));
  const Network b = Network::device(nmos(0, 240.0));
  const Network par = Network::parallel({a, b});
  Ctx c({0.0});
  const double ia = network_current(Network::device(nmos(0)), c.ctx, 0.0, 1.0);
  const double ip = network_current(par, c.ctx, 0.0, 1.0);
  EXPECT_NEAR(ip, 3.0 * ia, 1e-9 * ip);
}

TEST(Network, StackEffectSuppressesLeakage) {
  // Two series OFF devices leak much less than one (stack factor ~5-10x).
  Ctx c({0.0});
  const double single = network_current(Network::device(nmos(0)), c.ctx, 0.0, 1.0);
  const Network stack2 = Network::series({Network::device(nmos(0)), Network::device(nmos(0))});
  const double dual = network_current(stack2, c.ctx, 0.0, 1.0);
  EXPECT_LT(dual, single / 2.5);
  EXPECT_GT(dual, single / 50.0);
}

TEST(Network, DeeperStacksLeakLess) {
  Ctx c({0.0});
  double prev = network_current(Network::device(nmos(0)), c.ctx, 0.0, 1.0);
  for (int depth = 2; depth <= 4; ++depth) {
    std::vector<Network> chain;
    for (int i = 0; i < depth; ++i) chain.push_back(Network::device(nmos(0)));
    const double i = network_current(Network::series(std::move(chain)), c.ctx, 0.0, 1.0);
    EXPECT_LT(i, prev) << "depth=" << depth;
    prev = i;
  }
}

TEST(Network, OnDeviceInSeriesIsTransparent) {
  // series(ON, OFF) ~ the OFF device alone with nearly full bias (slightly
  // larger than a 2-stack, close to single-device leakage).
  Ctx c({0.0, 1.0});
  const Network on_off = Network::series({Network::device(nmos(1)), Network::device(nmos(0))});
  const double i = network_current(on_off, c.ctx, 0.0, 1.0);
  const double single = network_current(Network::device(nmos(0)), c.ctx, 0.0, 1.0);
  EXPECT_GT(i, 0.5 * single);
  EXPECT_LT(i, 1.5 * single);
}

TEST(Network, MiddleOnDeviceThreeStack) {
  // OFF / ON / OFF: the pathological case for naive nodal iteration. The
  // result must be close to a 2-stack of the OFF devices.
  Ctx c({0.0, 1.0});
  const Network chain = Network::series({Network::device(nmos(0)), Network::device(nmos(1)),
                                         Network::device(nmos(0))});
  const Network two_stack =
      Network::series({Network::device(nmos(0)), Network::device(nmos(0))});
  const double i3 = network_current(chain, c.ctx, 0.0, 1.0);
  const double i2 = network_current(two_stack, c.ctx, 0.0, 1.0);
  EXPECT_NEAR(i3, i2, 0.2 * i2);
}

TEST(Network, SeriesOrderInvariantForIdenticalTerminals) {
  // OFF-NMOS over OFF-PMOS vs the reverse order: physically different
  // circuits, but both must solve and carry positive current.
  Ctx c({0.0, 1.0});  // nmos gate 0 (off), pmos gate 1 (off)
  const Network a = Network::series({Network::device(nmos(0)), Network::device(pmos(1))});
  const Network b = Network::series({Network::device(pmos(1)), Network::device(nmos(0))});
  const double ia = network_current(a, c.ctx, 0.0, 1.0);
  const double ib = network_current(b, c.ctx, 0.0, 1.0);
  EXPECT_GT(ia, 0.0);
  EXPECT_GT(ib, 0.0);
}

TEST(Network, SeriesOfParallelGroups) {
  // series(parallel(off, off), off): the parallel group doubles the width.
  Ctx c({0.0});
  const Network net = Network::series(
      {Network::parallel({Network::device(nmos(0)), Network::device(nmos(0))}),
       Network::device(nmos(0))});
  const Network wide_then_narrow =
      Network::series({Network::device(nmos(0, 240.0)), Network::device(nmos(0))});
  const double i1 = network_current(net, c.ctx, 0.0, 1.0);
  const double i2 = network_current(wide_then_narrow, c.ctx, 0.0, 1.0);
  EXPECT_NEAR(i1, i2, 1e-6 * i2);
}

TEST(Network, ParallelOfSeriesChains) {
  // XOR-style PDN: parallel(series(off,off), series(off,off)) = 2x one chain.
  Ctx c({0.0});
  const Network chain = Network::series({Network::device(nmos(0)), Network::device(nmos(0))});
  const Network par = Network::parallel({chain, chain});
  const double i1 = network_current(chain, c.ctx, 0.0, 1.0);
  const double i2 = network_current(par, c.ctx, 0.0, 1.0);
  EXPECT_NEAR(i2, 2.0 * i1, 1e-6 * i2);
}

TEST(Network, FlattensNestedSeries) {
  const Network nested = Network::series(
      {Network::device(nmos(0)),
       Network::series({Network::device(nmos(0)), Network::device(nmos(0))})});
  EXPECT_EQ(nested.children().size(), 3u);
  const Network nested_par = Network::parallel(
      {Network::device(nmos(0)),
       Network::parallel({Network::device(nmos(0)), Network::device(nmos(0))})});
  EXPECT_EQ(nested_par.children().size(), 3u);
}

TEST(Network, SingleChildCollapses) {
  const Network s = Network::series({Network::device(nmos(0))});
  EXPECT_EQ(s.kind(), Network::Kind::kDevice);
}

TEST(Network, DeviceCountAndCollect) {
  const Network net = Network::series(
      {Network::parallel({Network::device(nmos(0)), Network::device(nmos(1))}),
       Network::device(pmos(2))});
  EXPECT_EQ(net.device_count(), 3u);
  std::vector<const NetworkDevice*> devs;
  net.collect_devices(devs);
  ASSERT_EQ(devs.size(), 3u);
  EXPECT_EQ(devs[2]->type, DeviceType::kPmos);
}

TEST(Network, PerDeviceVtShiftApplied) {
  NetworkDevice d = nmos(0);
  d.dvt_index = 0;
  const Network n = Network::device(d);
  Ctx c({0.0});
  std::vector<double> dvt = {0.05};
  c.ctx.dvt_v = dvt;
  const double i_shift = network_current(n, c.ctx, 0.0, 1.0);
  c.ctx.dvt_v = {};
  const double i_base = network_current(n, c.ctx, 0.0, 1.0);
  EXPECT_NEAR(i_shift / i_base,
              std::exp(-0.05 / (kTech.subthreshold_n * kTech.thermal_vt_v)), 1e-9);
}

TEST(Network, ZeroBiasZeroCurrent) {
  Ctx c({0.0});
  EXPECT_DOUBLE_EQ(network_current(Network::device(nmos(0)), c.ctx, 0.5, 0.5), 0.0);
}

TEST(Network, ContractChecks) {
  Ctx c({0.0});
  EXPECT_THROW(network_current(Network::device(nmos(0)), c.ctx, 1.0, 0.0), ContractViolation);
  EXPECT_THROW(Network::series({}), ContractViolation);
  EXPECT_THROW(Network::parallel({}), ContractViolation);
  // Gate signal out of range.
  EXPECT_THROW(network_current(Network::device(nmos(5)), c.ctx, 0.0, 1.0), ContractViolation);
  const Network n = Network::device(nmos(0));
  EXPECT_THROW(Network::series({n, n}).dev(), ContractViolation);
}

TEST(Network, CurrentContinuityInChain) {
  // The solved chain current must be bounded by the most- and least-leaky
  // single elements under full bias.
  Ctx c({0.0});
  const Network chain = Network::series({Network::device(nmos(0, 240.0)),
                                         Network::device(nmos(0, 120.0)),
                                         Network::device(nmos(0, 360.0))});
  const double i = network_current(chain, c.ctx, 0.0, 1.0);
  const double weakest = network_current(Network::device(nmos(0, 120.0)), c.ctx, 0.0, 1.0);
  EXPECT_GT(i, 0.0);
  EXPECT_LT(i, weakest);
}

// Stacks of 1, 2 and 3 OFF NMOS devices, each with its own dvt index.
std::vector<Network> off_stacks() {
  std::vector<Network> out;
  for (int depth = 1; depth <= 3; ++depth) {
    std::vector<Network> chain;
    for (int k = 0; k < depth; ++k) {
      NetworkDevice d = nmos(0);
      d.dvt_index = k;
      chain.push_back(Network::device(d));
    }
    out.push_back(Network::series(std::move(chain)));
  }
  return out;
}

// Calls network_current and returns the ContractViolation message ("" when
// nothing was thrown).
std::string contract_message(const Network& n, const NetworkEvalContext& ctx, double v_lo,
                             double v_hi) {
  try {
    network_current(n, ctx, v_lo, v_hi);
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "";
}

TEST(Network, NonFiniteInputsAreRejectedAtEntry) {
  // A NaN used to come back as a NaN current from a single device or a
  // two-stack, and as a finite, wrong current from a three-stack.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Network& net : off_stacks()) {
    const std::string depth = std::to_string(net.device_count());
    Ctx c({0.0, 1.0});
    std::vector<double> dvt = {0.0, 0.0, 0.0};
    c.ctx.dvt_v = dvt;
    ASSERT_GT(network_current(net, c.ctx, 0.0, 1.0), 0.0) << depth;

    dvt[net.device_count() - 1] = nan;
    EXPECT_NE(contract_message(net, c.ctx, 0.0, 1.0)
                  .find("dvt_v[" + std::to_string(net.device_count() - 1) + "] is not finite"),
              std::string::npos)
        << depth;
    dvt.assign(3, 0.0);

    c.volts[1] = inf;
    EXPECT_NE(contract_message(net, c.ctx, 0.0, 1.0).find("gate_voltage_v[1] is not finite"),
              std::string::npos)
        << depth;
    c.volts[1] = 1.0;

    c.ctx.l_nm = nan;
    EXPECT_NE(contract_message(net, c.ctx, 0.0, 1.0).find("channel length"), std::string::npos)
        << depth;
    c.ctx.l_nm = 40.0;

    EXPECT_NE(contract_message(net, c.ctx, 0.0, nan).find("rail voltages"), std::string::npos)
        << depth;
    EXPECT_NE(contract_message(net, c.ctx, -inf, 1.0).find("rail voltages"), std::string::npos)
        << depth;
  }
}

TEST(RootFinding, IterationCapRaisesNumericalError) {
  const auto f = [](double x) { return x - 0.3; };
  const detail::Bracket br{0.0, 1.0};
  // (k+1)^2 with k = ceil(log2(1 / 1e-17)) = 57 bisection steps.
  EXPECT_EQ(detail::brent_iteration_cap(br, 1e-17), 58 * 58);
  EXPECT_THROW(detail::brent(f, br, f(br.lo), f(br.hi), 1e-17, 1, "test"), NumericalError);
  const detail::Bracket root = detail::brent(f, br, f(br.lo), f(br.hi), 1e-17, "test");
  EXPECT_LE(root.lo, 0.3);
  EXPECT_GT(root.hi, 0.3);
}

// Functions on which interpolation makes little progress (infinite or zero
// slope at the root, a jump, +inf on the high side, many decades of range)
// still converge within the cap derived from the bracket.
TEST(RootFinding, HardFunctionsConvergeWithinDerivedCap) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double r = 0.3;
  const std::vector<std::pair<const char*, double (*)(double)>> cases = {
      {"cbrt", [](double x) { return std::cbrt(x - 0.3); }},
      {"ninth power", [](double x) { return std::pow(x - 0.3, 9); }},
      {"jump", [](double x) { return x <= 0.3 ? -1e-300 : 1.0; }},
      {"overshoot", [](double x) { return x <= 0.3 ? x - 0.3 : kInf; }},
      {"exponential", [](double x) { return std::exp(80.0 * x) - std::exp(80.0 * 0.3); }},
  };
  for (const auto& [name, f] : cases) {
    for (const double tol : {1e-17, 1e-15, 1e-9}) {
      const detail::Bracket br{0.0, 1.0};
      detail::Bracket root{};
      ASSERT_NO_THROW(root = detail::brent(f, br, f(br.lo), f(br.hi), tol, name)) << name;
      EXPECT_LE(root.lo, r + tol) << name;
      EXPECT_GE(root.hi, r - tol) << name;
      EXPECT_LE(root.hi - root.lo, 4.0 * std::numeric_limits<double>::epsilon() + tol) << name;
    }
  }
}

}  // namespace
}  // namespace rgleak::device

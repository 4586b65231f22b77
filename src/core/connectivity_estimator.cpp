#include "core/connectivity_estimator.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "charlib/correlation_map.h"
#include "util/require.h"

namespace rgleak::core {

namespace {

// Key of a (cell, state) component.
std::size_t component_key(std::size_t cell, std::uint32_t state) { return cell << 20 | state; }

// The component with key `key` as a mixture of a single component of weight 1.
std::vector<charlib::RgComponent> state_mixture(const charlib::CharacterizedLibrary& chars,
                                                std::size_t key) {
  const charlib::StateChar& st = chars.cell(key >> 20).states[key & 0xfffffu];
  charlib::RgComponent c;
  c.weight = 1.0;
  c.mean_na = st.mean_na;
  c.sigma_na = st.sigma_na;
  c.model = st.model;
  return {c};
}

}  // namespace

ConnectivityAwareEstimator::ConnectivityAwareEstimator(
    const charlib::CharacterizedLibrary& chars, CorrelationMode mode)
    : chars_(&chars), mode_(mode) {
  charlib::require_mode_supported(chars, mode);
}

LeakageEstimate ConnectivityAwareEstimator::estimate(const netlist::ConnectedNetlist& netlist,
                                                     const placement::Floorplan& fp,
                                                     double input_probability) const {
  const std::size_t n = netlist.size();
  RGLEAK_REQUIRE(fp.num_sites() >= n, "floorplan has fewer sites than gates");

  // Propagate probabilities and build per-gate pruned state distributions.
  const std::vector<double> net_probs =
      netlist::propagate_probabilities(netlist, input_probability);
  const auto gate_inputs = netlist::gate_input_probabilities(netlist, net_probs);

  // Components carry their key while the gates are scanned, then a dense
  // index in key order.
  struct GateDist {
    std::vector<std::pair<std::size_t, double>> states;  // (component, prob), pruned
    double mean_na = 0.0;
    double sigma_na = 0.0;  // state-mixed total sigma (diagonal term)
  };
  std::vector<GateDist> dist(n);
  std::vector<std::size_t> keys;
  for (std::size_t g = 0; g < n; ++g) {
    const std::size_t ci = netlist.gate(g).cell_index;
    const cells::Cell& cell = chars_->library().cell(ci);
    GateDist& d = dist[g];
    double mean = 0.0, second = 0.0;
    for (std::uint32_t s = 0; s < cell.num_states(); ++s) {
      double p = 1.0;
      for (int bit = 0; bit < cell.num_inputs(); ++bit)
        p *= ((s >> bit) & 1u) ? gate_inputs[g][static_cast<std::size_t>(bit)]
                               : 1.0 - gate_inputs[g][static_cast<std::size_t>(bit)];
      if (p < 1e-9) continue;
      const auto& st = chars_->cell(ci).states[s];
      d.states.emplace_back(component_key(ci, s), p);
      keys.push_back(component_key(ci, s));
      mean += p * st.mean_na;
      second += p * (st.sigma_na * st.sigma_na + st.mean_na * st.mean_na);
    }
    // Renormalize after pruning.
    double total_p = 0.0;
    for (auto& [c, p] : d.states) total_p += p;
    RGLEAK_REQUIRE(total_p > 0.0, "gate has empty state distribution");
    for (auto& [c, p] : d.states) p /= total_p;
    mean /= total_p;
    second /= total_p;
    d.mean_na = mean;
    const double var = second - mean * mean;
    d.sigma_na = var > 0.0 ? std::sqrt(var) : 0.0;
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (auto& d : dist)
    for (auto& [c, p] : d.states)
      c = static_cast<std::size_t>(std::lower_bound(keys.begin(), keys.end(), c) - keys.begin());

  // rho_L per grid offset.
  const std::size_t k = fp.rows, m = fp.cols;
  std::vector<double> rho(k * m);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < m; ++i)
      rho[j * m + i] = chars_->process().total_length_correlation_xy(
          static_cast<double>(i) * fp.site_w_nm, static_cast<double>(j) * fp.site_h_nm);

  // One covariance table per unordered pair of components (i <= j, stored
  // triangularly), built on first use. Local to the call, so concurrent
  // estimates share nothing mutable. In simplified mode a table is
  // sigma_i sigma_j rho_L: the rho_mn = rho_L model applies to the
  // process-variation component only, since state choice is independent
  // across gates (cf. eq. (10)).
  const double mu_l = chars_->process().length().mean_nm;
  const double sigma_l = chars_->process().length().sigma_total_nm();
  std::vector<std::optional<charlib::MixtureCovariance>> tables(keys.size() *
                                                                (keys.size() + 1) / 2);
  const auto table = [&](std::size_t i, std::size_t j) -> const charlib::MixtureCovariance& {
    if (i > j) std::swap(i, j);
    std::optional<charlib::MixtureCovariance>& t = tables[j * (j + 1) / 2 + i];
    if (!t)
      t.emplace(state_mixture(*chars_, keys[i]), state_mixture(*chars_, keys[j]), mode_, mu_l,
                sigma_l);
    return *t;
  };

  double mean = 0.0, var = 0.0;
  for (const auto& d : dist) {
    mean += d.mean_na;
    var += d.sigma_na * d.sigma_na;  // diagonal
  }

  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t ra = a / m, ca = a % m;
    for (std::size_t b = a + 1; b < n; ++b) {
      const std::size_t rb = b / m, cb = b % m;
      const std::size_t dr = ra > rb ? ra - rb : rb - ra;
      const std::size_t dc = ca > cb ? ca - cb : cb - ca;
      const double r = rho[dr * m + dc];
      double cov = 0.0;
      for (const auto& [ia, pa] : dist[a].states)
        for (const auto& [ib, pb] : dist[b].states) cov += pa * pb * table(ia, ib).covariance(r);
      var += 2.0 * cov;
    }
  }

  LeakageEstimate e;
  e.mean_na = mean;
  e.sigma_na = std::sqrt(std::max(0.0, var));
  return e;
}

}  // namespace rgleak::core

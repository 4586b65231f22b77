#include "cells/cell.h"

#include "util/require.h"

namespace rgleak::cells {

void Cell::resolve_into(std::uint32_t state, std::vector<bool>& signals) const {
  RGLEAK_REQUIRE(state < num_states(), "input state out of range");
  signals.assign(static_cast<std::size_t>(num_signals_), false);
  for (int i = 0; i < num_inputs_; ++i)
    signals[static_cast<std::size_t>(i)] = (state >> i) & 1u;
  signals[static_cast<std::size_t>(gnd_signal_)] = false;
  signals[static_cast<std::size_t>(vdd_signal_)] = true;
  int next_output = num_inputs_ + 2;  // inputs, then gnd/vdd, then stage outputs
  for (const auto& stage : stages_) {
    if (!stage.output) continue;
    // Expressions only reference signals defined earlier, so a single forward
    // pass resolves everything.
    const bool value = stage.output->invert ^ stage.output->expr.eval(signals);
    signals[static_cast<std::size_t>(next_output++)] = value;
  }
}

std::vector<bool> Cell::resolve_signals(std::uint32_t state) const {
  std::vector<bool> signals;
  resolve_into(state, signals);
  return signals;
}

double Cell::leakage_na(std::uint32_t state, double l_nm, const device::TechnologyParams& tech,
                        std::span<const double> dvt_v) const {
  // Per-thread scratch: the characterizers call this in their inner loop.
  thread_local std::vector<bool> signals;
  thread_local std::vector<double> voltage;
  thread_local std::vector<double> dvt_combined;
  resolve_into(state, signals);
  voltage.resize(signals.size());
  for (std::size_t i = 0; i < signals.size(); ++i) voltage[i] = signals[i] ? tech.vdd_v : 0.0;

  // Fold the systematic multi-Vt flavor offset into the per-device shifts.
  if (vt_offset_v_ != 0.0) {
    dvt_combined.assign(num_devices_, vt_offset_v_);
    for (std::size_t i = 0; i < dvt_v.size() && i < dvt_combined.size(); ++i)
      dvt_combined[i] += dvt_v[i];
  }

  device::NetworkEvalContext ctx;
  ctx.tech = &tech;
  ctx.gate_voltage_v = voltage;
  ctx.l_nm = l_nm;
  ctx.dvt_v = vt_offset_v_ != 0.0 ? std::span<const double>(dvt_combined) : dvt_v;

  double total = 0.0;
  int next_output = num_inputs_ + 2;
  for (const auto& stage : stages_) {
    if (stage.rail_path) {
      total += device::network_current(*stage.rail_path, ctx, 0.0, tech.vdd_v);
      continue;
    }
    // CMOS stage: the off network (opposite the output level) leaks under
    // full rail bias.
    const bool out_high = signals[static_cast<std::size_t>(next_output++)];
    const device::Network& off = out_high ? *stage.pdn : *stage.pun;
    total += device::network_current(off, ctx, 0.0, tech.vdd_v);
  }

  if (tech.gate_leak_na_per_um2 > 0.0) {
    // Gate-tunneling extension: a device whose channel is inverted (NMOS
    // gate high / PMOS gate low) tunnels across the full oxide bias.
    thread_local std::vector<const device::NetworkDevice*> devices;
    devices.clear();
    for (const auto& stage : stages_) {
      if (stage.pdn) stage.pdn->collect_devices(devices);
      if (stage.pun) stage.pun->collect_devices(devices);
      if (stage.rail_path) stage.rail_path->collect_devices(devices);
    }
    for (const auto* d : devices) {
      const bool gate_high = signals[static_cast<std::size_t>(d->gate_signal)];
      const bool inverted =
          d->type == device::DeviceType::kNmos ? gate_high : !gate_high;
      if (inverted) total += device::gate_tunneling_current(tech, d->w_nm, l_nm);
    }
  }
  return total;
}

CellBuilder::CellBuilder(std::string name, int num_inputs, Sizing sizing)
    : sizing_(sizing),
      next_signal_(num_inputs + 2),
      gnd_signal_(num_inputs),
      vdd_signal_(num_inputs + 1) {
  RGLEAK_REQUIRE(num_inputs >= 0 && num_inputs <= 8, "cells support 0..8 inputs");
  cell_.name_ = std::move(name);
  cell_.num_inputs_ = num_inputs;
  cell_.gnd_signal_ = gnd_signal_;
  cell_.vdd_signal_ = vdd_signal_;
}

int CellBuilder::input(int index) const {
  RGLEAK_REQUIRE(index >= 0 && index < cell_.num_inputs_, "input index out of range");
  return index;
}

int CellBuilder::add_inverting_gate(const Expr& f) {
  Stage stage;
  stage.pdn = build_pulldown(f, sizing_, next_dvt_);
  stage.pun = build_pullup(f, sizing_, next_dvt_);
  stage.output = Stage::Output{f, /*invert=*/true};
  cell_.stages_.push_back(std::move(stage));
  const int signal = next_signal_++;
  // Default primary output: the last logic stage (explicit set wins).
  if (!explicit_primary_) cell_.primary_output_ = signal;
  return signal;
}

int CellBuilder::add_inverter(int signal) { return add_inverting_gate(Expr::var(signal)); }

void CellBuilder::add_tgate_path(int gate_signal) {
  device::NetworkDevice n;
  n.type = device::DeviceType::kNmos;
  n.gate_signal = gate_signal;
  n.w_nm = sizing_.wn_nm * sizing_.drive;
  n.dvt_index = next_dvt_++;
  device::NetworkDevice p;
  p.type = device::DeviceType::kPmos;
  p.gate_signal = gate_signal;
  p.w_nm = sizing_.wp_nm * sizing_.drive;
  p.dvt_index = next_dvt_++;
  Stage stage;
  stage.rail_path =
      device::Network::series({device::Network::device(n), device::Network::device(p)});
  cell_.stages_.push_back(std::move(stage));
}

void CellBuilder::add_off_nmos_path(double width_multiplier) {
  device::NetworkDevice n;
  n.type = device::DeviceType::kNmos;
  n.gate_signal = gnd_signal_;
  n.w_nm = sizing_.wn_nm * sizing_.drive * width_multiplier;
  n.dvt_index = next_dvt_++;
  Stage stage;
  stage.rail_path = device::Network::device(n);
  cell_.stages_.push_back(std::move(stage));
}

Cell Cell::with_vt_flavor(const std::string& suffix, double vt_offset_v) const {
  RGLEAK_REQUIRE(!suffix.empty(), "flavor suffix must be non-empty");
  Cell flavored = *this;
  flavored.name_ = name_ + suffix;
  flavored.vt_offset_v_ = vt_offset_v_ + vt_offset_v;
  return flavored;
}

int Cell::primary_output_signal() const {
  RGLEAK_REQUIRE(primary_output_ >= 0, "cell has no primary output: " + name_);
  return primary_output_;
}

bool Cell::output_value(std::uint32_t state) const {
  RGLEAK_REQUIRE(primary_output_ >= 0, "cell has no primary output: " + name_);
  return resolve_signals(state)[static_cast<std::size_t>(primary_output_)];
}

double Cell::output_probability(const std::vector<double>& input_probs) const {
  RGLEAK_REQUIRE(static_cast<int>(input_probs.size()) == num_inputs_,
                 "input probability count mismatch");
  for (double p : input_probs)
    RGLEAK_REQUIRE(p >= 0.0 && p <= 1.0, "input probabilities must be in [0, 1]");
  double p_one = 0.0;
  for (std::uint32_t s = 0; s < num_states(); ++s) {
    double p = 1.0;
    for (int bit = 0; bit < num_inputs_; ++bit)
      p *= ((s >> bit) & 1u) ? input_probs[static_cast<std::size_t>(bit)]
                             : 1.0 - input_probs[static_cast<std::size_t>(bit)];
    if (p == 0.0) continue;
    if (output_value(s)) p_one += p;
  }
  return p_one;
}

void CellBuilder::set_primary_output(int signal) {
  RGLEAK_REQUIRE(signal >= cell_.num_inputs_ + 2 && signal < next_signal_,
                 "primary output must be a stage output signal");
  cell_.primary_output_ = signal;
  explicit_primary_ = true;
}

void CellBuilder::add_split_gate_stage(int nmos_gate, int pmos_gate) {
  device::NetworkDevice n;
  n.type = device::DeviceType::kNmos;
  n.gate_signal = nmos_gate;
  n.w_nm = sizing_.wn_nm * sizing_.drive;
  n.dvt_index = next_dvt_++;
  device::NetworkDevice p;
  p.type = device::DeviceType::kPmos;
  p.gate_signal = pmos_gate;
  p.w_nm = sizing_.wp_nm * sizing_.drive;
  p.dvt_index = next_dvt_++;
  Stage stage;
  stage.rail_path =
      device::Network::series({device::Network::device(n), device::Network::device(p)});
  cell_.stages_.push_back(std::move(stage));
}

Cell CellBuilder::build() && {
  RGLEAK_REQUIRE(!cell_.stages_.empty(), "cell has no stages");
  cell_.num_signals_ = next_signal_;
  std::size_t devices = 0;
  for (const auto& s : cell_.stages_) {
    if (s.pdn) devices += s.pdn->device_count();
    if (s.pun) devices += s.pun->device_count();
    if (s.rail_path) devices += s.rail_path->device_count();
  }
  cell_.num_devices_ = devices;
  // Footprint model: ~1.5 um^2 per transistor at 90 nm, scaled by drive.
  cell_.footprint_nm2_ = 1.5e6 * static_cast<double>(devices) * sizing_.drive;
  return std::move(cell_);
}

}  // namespace rgleak::cells

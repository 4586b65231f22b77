// mc_validate: full-chip Monte Carlo (mc::FullChipMonteCarlo) on a placed
// ~10k-gate random netlist over a 100 x 100 site grid, alternating runs on
// min(4, nproc) worker threads with serial runs, checked against the exact
// pairwise estimate of the same placement. process field sampling and the
// math FFT under it dominate each trial; device is not called per trial.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cells/library.h"
#include "charlib/characterize.h"
#include "charlib/leakage_table.h"
#include "common.h"
#include "core/estimators.h"
#include "math/rng.h"
#include "mc/full_chip_mc.h"
#include "netlist/random_circuit.h"
#include "placement/placement.h"
#include "process/field_sampler.h"
#include "util/metrics.h"

namespace rgbench {

namespace {

using namespace rgleak;

// Cells the random netlist draws from; the seed sets their weights.
const char* const kCells[] = {"INV_X1", "NAND2_X1", "NOR2_X1", "XOR2_X1"};

struct Fixture {
  explicit Fixture(cells::StdCellLibrary l) : lib(std::move(l)) {}

  cells::StdCellLibrary lib;
  std::unique_ptr<charlib::CharacterizedLibrary> chars;
  std::unique_ptr<netlist::Netlist> nl;
  std::unique_ptr<placement::Placement> pl;
  std::unique_ptr<mc::FullChipMonteCarlo> threaded, serial;
  core::LeakageEstimate exact;
};

struct McRun {
  bool threaded = false;
  bool warmup = false;  ///< untimed; its samples still count for the checks
  std::size_t trials = 0;
  double wall_s = 0.0;
  double mean_na = 0.0;
  double sigma_na = 0.0;
};

std::unique_ptr<Fixture> set_up(const Args& args, Tracer& tracer) {
  auto fx = std::make_unique<Fixture>([&] {
    Span s(tracer, "cells.build");
    return cells::build_virtual90_library();
  }());
  {
    Span s(tracer, "charlib.characterize");
    fx->chars = std::make_unique<charlib::CharacterizedLibrary>(
        charlib::characterize_analytic(fx->lib, bench_process()));
  }
  math::Rng rng(args.seed);
  netlist::UsageHistogram usage;
  usage.alphas.assign(fx->lib.size(), 0.0);
  double total = 0.0;
  for (const char* name : kCells) {
    const double w = 0.5 + rng.uniform();
    usage.alphas[fx->lib.index_of(name)] = w;
    total += w;
  }
  for (double& a : usage.alphas) a /= total;
  const std::size_t gates = args.small ? 2500 : 10000;
  {
    Span s(tracer, "netlist.generate");
    fx->nl = std::make_unique<netlist::Netlist>(
        netlist::generate_random_circuit(fx->lib, usage, gates, rng));
  }
  {
    Span s(tracer, "placement.build");
    fx->pl = std::make_unique<placement::Placement>(
        fx->nl.get(), placement::Floorplan::for_gate_count(gates));
  }
  mc::FullChipMcOptions opts;
  opts.seed = static_cast<std::uint64_t>(rng.uniform(1.0, 1e9));
  opts.threads = bench_threads();
  opts.trials = 25 * opts.threads;
  {
    Span s(tracer, "mc.construct");
    fx->threaded = std::make_unique<mc::FullChipMonteCarlo>(*fx->pl, *fx->chars, opts);
  }
  opts.seed = static_cast<std::uint64_t>(rng.uniform(1.0, 1e9));
  opts.threads = 1;
  opts.trials = 25;
  {
    Span s(tracer, "mc.construct");
    fx->serial = std::make_unique<mc::FullChipMonteCarlo>(*fx->pl, *fx->chars, opts);
  }
  const core::ExactEstimator exact(*fx->chars, opts.signal_probability,
                                   core::CorrelationMode::kAnalytic);
  core::ExactOptions eo;
  eo.method = core::ExactMethod::kFft;
  eo.threads = 1;
  {
    Span s(tracer, "core.exact_fft");
    fx->exact = exact.estimate(*fx->pl, eo);
  }
  return fx;
}

std::vector<McRun> measure(Fixture& fx, double seconds, Tracer& tracer) {
  std::vector<McRun> runs;
  double t0 = now_s();
  // The first pair is a warm-up: it sizes the worker workspaces and FFT
  // scratch.
  while (runs.size() < 6 || now_s() - t0 < seconds) {
    const bool warmup = runs.empty();
    for (mc::FullChipMonteCarlo* engine : {fx.threaded.get(), fx.serial.get()}) {
      McRun r;
      r.threaded = engine == fx.threaded.get();
      r.warmup = warmup;
      const double t = now_s();
      mc::FullChipMcResult res;
      {
        Span s(tracer, r.threaded ? "mc.run_threaded" : "mc.run_serial");
        res = engine->run();
      }
      r.wall_s = now_s() - t;
      r.trials = res.trials;
      r.mean_na = res.mean_na;
      r.sigma_na = res.sigma_na;
      runs.push_back(r);
    }
    if (warmup) t0 = now_s();
  }
  return runs;
}

double rate(const std::vector<McRun>& runs, bool threaded) {
  double trials = 0.0, wall = 0.0;
  for (const McRun& r : runs)
    if (r.threaded == threaded && !r.warmup) {
      trials += static_cast<double>(r.trials);
      wall += r.wall_s;
    }
  return trials / wall;
}

// Batch means: every MC run is one batch. The exact mean and sigma must lie
// inside z = 4 standard errors of the pooled MC estimates; the standard
// errors come from the spread of the per-batch statistics, so they include
// the variation between the two engines' state draws.
void check_against_exact(const Args& args, const std::vector<McRun>& runs,
                         const core::LeakageEstimate& exact, Report& report) {
  constexpr double kZ = 4.0;
  double n_total = 0.0, m_bar = 0.0;
  for (const McRun& r : runs) {
    n_total += static_cast<double>(r.trials);
    m_bar += static_cast<double>(r.trials) * r.mean_na;
  }
  m_bar /= n_total;
  double v_bar = 0.0, between = 0.0;
  for (const McRun& r : runs) {
    const double n = static_cast<double>(r.trials);
    v_bar += n * r.sigma_na * r.sigma_na;
    between += n * (r.mean_na - m_bar) * (r.mean_na - m_bar);
  }
  v_bar /= n_total;
  const double var_total = v_bar + between / n_total;
  double se_m2 = 0.0, se_v2 = 0.0;
  for (const McRun& r : runs) {
    const double w = static_cast<double>(r.trials) / n_total;
    se_m2 += w * w * (r.mean_na - m_bar) * (r.mean_na - m_bar);
    const double v = r.sigma_na * r.sigma_na;
    se_v2 += w * w * (v - v_bar) * (v - v_bar);
  }
  const double b = static_cast<double>(runs.size());
  const double se_m = std::sqrt(se_m2 * b / (b - 1.0));
  const double se_v = std::sqrt(se_v2 * b / (b - 1.0));

  const double exact_mean = exact.mean_na * perturbation(args, "mc_mean", 0.10);
  const double exact_sigma = exact.sigma_na * perturbation(args, "mc_sigma", 0.30);
  const double sig_lo = std::sqrt(std::max(0.0, var_total - kZ * se_v));
  const double sig_hi = std::sqrt(var_total + kZ * se_v);
  char buf[200];
  std::snprintf(buf, sizeof buf, "exact %.6g nA in MC [%.6g, %.6g] (%zu batches, %.0f trials)",
                exact_mean, m_bar - kZ * se_m, m_bar + kZ * se_m, runs.size(), n_total);
  report.check("mc_mean", std::abs(exact_mean - m_bar) <= kZ * se_m, buf);
  std::snprintf(buf, sizeof buf, "exact %.6g nA in MC [%.6g, %.6g]", exact_sigma, sig_lo, sig_hi);
  report.check("mc_sigma", exact_sigma >= sig_lo && exact_sigma <= sig_hi, buf);
  report.info("mc_mean_na", m_bar);
  report.info("mc_sigma_na", std::sqrt(var_total));
  report.info("exact_mean_na", exact.mean_na);
  report.info("exact_sigma_na", exact.sigma_na);
}

}  // namespace

int run_mc_validate(const Args& args, Tracer& tracer, Report& report) {
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  for (int rep = 0; rep < (args.small ? 1 : 3); ++rep) {
    fx.reset();
    const double t0 = now_s();
    fx = set_up(args, tracer);
    setup_s.push_back(now_s() - t0);
  }

  auto& trials_counter = util::metrics::Registry::instance().counter("mc.trials");
  std::vector<McRun> untraced;
  if (tracer.on()) {
    Tracer off(false);
    untraced = measure(*fx, args.seconds / 2, off);
  }
  const std::uint64_t trials_before = trials_counter.value();
  const std::vector<McRun> runs =
      measure(*fx, tracer.on() ? args.seconds / 2 : args.seconds, tracer);
  const std::uint64_t trials_counted = trials_counter.value() - trials_before;

  std::vector<double> serial_ms;
  std::size_t trials = 0;
  for (const McRun& r : runs) {
    trials += r.trials;
    if (!r.threaded && !r.warmup)
      serial_ms.push_back(r.wall_s * 1e3 / static_cast<double>(r.trials));
  }
  report.add_attempted(runs.size() + untraced.size());
  report.metric("setup_s", median(setup_s), "s");
  report.metric("ops_per_s", rate(runs, true), "1/s");
  report.metric("op_ms_p50", median(serial_ms), "ms");
  report.metric("op_ms_p95", quantile(serial_ms, 0.95), "ms");
  report.info("mc_runs", static_cast<double>(runs.size()));
  report.info("mc_trials", static_cast<double>(trials));
  report.info("serial_trials_per_s", rate(runs, false));

  std::vector<McRun> all = runs;
  all.insert(all.end(), untraced.begin(), untraced.end());
  check_against_exact(args, all, fx->exact, report);

  if (tracer.on()) {
    // Field sampling alone, on a sampler built exactly as the engine builds
    // its own, and batched table evaluation over the netlist's gates.
    const placement::Floorplan& fp = fx->pl->floorplan();
    const process::ProcessVariation& proc = fx->chars->process();
    process::GridFieldSampler field(fp.rows, fp.cols, fp.site_w_nm, fp.site_h_nm,
                                    proc.wid_correlation(), proc.length().sigma_wid_nm,
                                    proc.anisotropy());
    process::FieldWorkspace ws;
    std::vector<double> out;
    math::Rng rng(args.seed + 1);
    field.sample_into(rng, ws, out);
    // Field blocks alternate with serial engine runs and the share is taken
    // per adjacent pair, so slow swings in machine speed cancel. One FFT
    // yields two fields and every second call returns the cached one, as in
    // the engine's trials, so calls are timed in pairs.
    std::vector<double> field_us, field_share;
    for (int k = 0; k < 8; ++k) {
      double t = now_s();
      {
        Span s(tracer, "process.field");
        for (int i = 0; i < 10; ++i) {
          field.sample_into(rng, ws, out);
          field.sample_into(rng, ws, out);
        }
      }
      field_us.push_back((now_s() - t) * 1e6 / 20.0);
      t = now_s();
      const std::size_t n = fx->serial->run().trials;
      field_share.push_back(field_us.back() / ((now_s() - t) * 1e6 / static_cast<double>(n)));
    }

    const double mu = proc.length().mean_nm;
    const double sigma = proc.length().sigma_total_nm();
    std::vector<std::unique_ptr<charlib::LeakageTable>> tables;
    std::vector<std::vector<double>> lengths;
    for (const char* name : kCells) {
      tables.push_back(std::make_unique<charlib::LeakageTable>(
          fx->lib.cell(fx->lib.index_of(name)), 0, fx->lib.tech(), std::max(mu - 8 * sigma, 1.0),
          mu + 8 * sigma));
      lengths.emplace_back();
    }
    for (std::size_t g = 0; g < fx->nl->size(); ++g) {
      const std::string& cell = fx->lib.cell(fx->nl->gate(g).cell_index).name();
      for (std::size_t t = 0; t < tables.size(); ++t)
        if (cell == kCells[t]) lengths[t].push_back(rng.normal(mu, sigma));
    }
    std::vector<double> eval_ns;
    std::vector<double> buf(fx->nl->size());
    for (int k = 0; k < 100; ++k) {
      const double t = now_s();
      {
        Span s(tracer, "charlib.table_eval");
        for (std::size_t i = 0; i < tables.size(); ++i)
          tables[i]->eval_many_na(lengths[i].data(), buf.data(), lengths[i].size());
      }
      eval_ns.push_back((now_s() - t) * 1e9 / static_cast<double>(fx->nl->size()));
    }

    const double trial_us = median(serial_ms) * 1e3;
    report.metric("mc.trial_us", trial_us, "us");
    report.metric("process.field_us", median(field_us), "us");
    report.metric("process.padded_cells",
                  static_cast<double>(field.padded_rows() * field.padded_cols()), "count");
    report.metric("process.field_bytes", static_cast<double>(field.workspace_bytes()), "bytes");
    report.metric("charlib.table_eval_ns", median(eval_ns), "ns");
    report.metric("mc.field_share", median(field_share), "ratio");
    report.metric("mc.threads", static_cast<double>(bench_threads()), "count");
    report.metric("mc.scaling_eff",
                  rate(runs, true) / (static_cast<double>(bench_threads()) * rate(runs, false)),
                  "ratio");
    report.metric("mc.construct_ms", median(tracer.durations_ms("mc.construct")), "ms");
    report.metric("core.exact_fft_ms", median(tracer.durations_ms("core.exact_fft")), "ms");
    report.metric("cells.build_ms", median(tracer.durations_ms("cells.build")), "ms");
    report.metric("charlib.characterize_ms", median(tracer.durations_ms("charlib.characterize")),
                  "ms");
    report.metric("placement.build_ms", median(tracer.durations_ms("placement.build")), "ms");
    report.metric("trace.overhead_pct", (rate(untraced, true) / rate(runs, true) - 1.0) * 100.0,
                  "%");
    // The engine counts its own trials (util::metrics "mc.trials").
    const bool agree = trials_counted == trials;
    if (!agree)
      std::fprintf(stderr, "rgbench: cross-check: mc.trials counted %llu, benchmark ran %zu\n",
                   static_cast<unsigned long long>(trials_counted), trials);
    report.metric("trace.xcheck_disagreements", agree ? 0.0 : 1.0, "count");
  }
  return 0;
}

}  // namespace rgbench

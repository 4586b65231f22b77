// placed_batch: a closed-loop, in-process service::run_batch over a
// JobRunner with min(4, nproc) workers. The whole manifest is enqueued up
// front and each worker pulls its next job when it finishes one. The jobs
// are estimate jobs (1k to 1M gates, linear / rect / polar, p fixed or max)
// and exact netlist jobs (FFT on ISCAS85 and random netlists up to 16k
// gates, direct on three <= 4k-gate netlists). core estimator rungs, charlib
// correlation mapping and service do the work; device and process field
// sampling are not called.

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cells/library.h"
#include "charlib/characterize.h"
#include "charlib/io.h"
#include "common.h"
#include "core/estimators.h"
#include "core/leakage_estimator.h"
#include "core/random_gate.h"
#include "math/rng.h"
#include "netlist/io.h"
#include "netlist/iscas85.h"
#include "netlist/random_circuit.h"
#include "placement/placement.h"
#include "service/batch_runner.h"
#include "service/job_runner.h"
#include "service/journal.h"
#include "util/metrics.h"

namespace rgbench {

namespace {

using namespace rgleak;

// Usage families for the estimate jobs and random netlists; the seed sets the
// weights, the cell lists (and so the type count each job pays for) are fixed.
const std::vector<std::vector<const char*>> kFamilies = {
    {"INV_X1", "NAND2_X1", "NOR2_X1"},
    {"INV_X1", "NAND2_X1", "NOR2_X1", "DFF_X1", "AOI21_X1"},
    {"INV_X2", "NAND3_X1", "XOR2_X1", "MUX2_X1", "OAI21_X1", "FA_X1"},
    {"BUF_X1", "AND2_X1", "OR2_X1", "NAND4_X1", "NOR3_X1", "AOI22_X1", "DFFR_X1", "SRAM6T"},
};

struct Family {
  std::string spec;  // "CELL:w,..." for estimate jobs
  netlist::UsageHistogram usage;
};

// Counts the time spent inside JobRunner::execute, per call.
class TimedExecutor : public service::Executor {
 public:
  TimedExecutor(service::Executor& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  service::JobOutput execute(const service::JobSpec& job, const util::RunControl* watchdog,
                             int degrade) override {
    const double t0 = now_s();
    struct Record {
      TimedExecutor& self;
      double t0;
      ~Record() {
        const double ms = (now_s() - t0) * 1e3;
        std::lock_guard<std::mutex> lock(self.mu_);
        self.execute_ms_.push_back(ms);
      }
    } record{*this, t0};
    Span s(tracer_, "service.execute");
    return inner_.execute(job, watchdog, degrade);
  }

  std::vector<double> execute_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return execute_ms_;
  }

 private:
  service::Executor& inner_;
  Tracer& tracer_;
  mutable std::mutex mu_;
  std::vector<double> execute_ms_;
};

struct Fixture {
  explicit Fixture(cells::StdCellLibrary l) : lib(std::move(l)) {}

  cells::StdCellLibrary lib;
  std::unique_ptr<charlib::CharacterizedLibrary> chars;
  std::string lib_path;
  std::vector<Family> families;
  std::map<std::string, std::string> netlist_paths;  // name -> path
  std::unique_ptr<service::JobRunner> runner;
  std::vector<service::JobSpec> jobs;
};

service::JobSpec job(const std::string& id, const std::string& kind,
                     std::map<std::string, std::string> params) {
  service::JobSpec j;
  j.id = id;
  j.kind = kind;
  j.params = std::move(params);
  return j;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void remove_journal(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

service::BatchOptions batch_options(std::size_t jobs) {
  service::BatchOptions opts;
  opts.workers = bench_threads();
  opts.queue_depth = jobs;
  opts.isolate = service::ExecIsolation::kInProcess;
  return opts;
}

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
  fx->lib_path = args.workdir + "/lib.rgchar";
  charlib::save_characterization(*fx->chars, fx->lib_path);

  math::Rng rng(args.seed);
  for (const auto& cells : kFamilies) {
    Family f;
    std::vector<std::pair<std::string, std::size_t>> counts;
    for (const char* c : cells) {
      const auto w = static_cast<std::size_t>(1 + 9 * rng.uniform());
      counts.emplace_back(c, w);
      f.spec += (f.spec.empty() ? "" : ",") + std::string(c) + ":" + std::to_string(w);
    }
    f.usage = netlist::usage_from_counts(fx->lib, counts);
    fx->families.push_back(std::move(f));
  }

  // Netlists: the ISCAS85 set and random netlists, one per family and size.
  std::vector<std::pair<std::string, netlist::Netlist>> netlists;
  {
    Span s(tracer, "netlist.generate");
    const auto& iscas = netlist::iscas85_descriptors();
    for (std::size_t i = 0; i < iscas.size(); ++i)
      if (!args.small || i < 3)
        netlists.emplace_back(iscas[i].name, netlist::make_iscas85(iscas[i], fx->lib, rng));
    const std::vector<std::size_t> sizes =
        args.small ? std::vector<std::size_t>{1024, 2048} : std::vector<std::size_t>{
                                                                1024, 2048, 4096, 8192, 16384};
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      const std::string name = "rand" + std::to_string(sizes[k]);
      netlists.emplace_back(name, netlist::generate_random_circuit(
                                      fx->lib, fx->families[k % fx->families.size()].usage,
                                      sizes[k], rng));
    }
  }
  for (const auto& [name, nl] : netlists) {
    const std::string path = args.workdir + "/" + name + ".rgnl";
    netlist::save_netlist(nl, path);
    fx->netlist_paths[name] = path;
    Span s(tracer, "netlist.load");
    netlist::load_netlist(fx->lib, path);
  }

  // The manifest: estimate jobs over every (size, rung) pair, exact FFT jobs
  // on every netlist, exact direct jobs on three <= 4k-gate netlists (each
  // also run by FFT, so the two paths can be compared).
  const std::vector<std::size_t> est_sizes =
      args.small ? std::vector<std::size_t>{1000, 100000}
                 : std::vector<std::size_t>{1000, 4000, 16000, 64000, 256000, 1000000};
  const char* const methods[] = {"linear", "rect", "polar"};
  std::size_t k = 0;
  for (std::size_t s = 0; s < est_sizes.size(); ++s) {
    for (const char* m : methods) {
      const Family& f = fx->families[k % fx->families.size()];
      const double die_um = std::sqrt(static_cast<double>(est_sizes[s])) * 1.5;
      std::map<std::string, std::string> p = {{"lib", fx->lib_path},
                                              {"gates", std::to_string(est_sizes[s])},
                                              {"die_um", fmt(die_um) + "x" + fmt(die_um)},
                                              {"usage", f.spec},
                                              {"method", m}};
      p["p"] = k % 2 == 0 ? "max" : fmt(0.3 + 0.4 * rng.uniform());
      fx->jobs.push_back(job("est" + std::to_string(k), "estimate", std::move(p)));
      ++k;
    }
  }
  for (const auto& [name, path] : fx->netlist_paths)
    fx->jobs.push_back(job("fft-" + name, "netlist",
                           {{"lib", fx->lib_path}, {"netlist", path}, {"exact", "true"},
                            {"exact_method", "fft"}, {"threads", "1"}}));
  const std::vector<std::string> direct =
      args.small ? std::vector<std::string>{"rand1024"}
                 : std::vector<std::string>{"c2670", "c5315", "rand4096"};
  for (const std::string& name : direct)
    fx->jobs.push_back(job("direct-" + name, "netlist",
                           {{"lib", fx->lib_path}, {"netlist", fx->netlist_paths.at(name)},
                            {"exact", "true"}, {"exact_method", "direct"}, {"threads", "1"}}));

  // Runner plus cache warm-up: one cheap job per library and netlist file.
  fx->runner = std::make_unique<service::JobRunner>(fx->lib);
  std::vector<service::JobSpec> warm;
  for (const auto& [name, path] : fx->netlist_paths)
    warm.push_back(job("warm-" + name, "netlist", {{"lib", fx->lib_path}, {"netlist", path}}));
  const std::string journal_path = args.workdir + "/warmup.journal";
  remove_journal(journal_path);
  {
    service::Journal journal = service::Journal::open(journal_path);
    service::run_batch(warm, *fx->runner, journal, batch_options(warm.size()));
  }
  remove_journal(journal_path);
  return fx;
}

struct BatchRun {
  double wall_s = 0.0;
  std::map<std::string, service::JobRecord> records;
};

std::vector<BatchRun> measure(const Args& args, Fixture& fx, service::Executor& exec,
                              double seconds, std::vector<double>* append_ms) {
  std::vector<BatchRun> runs;
  const std::string path = args.workdir + "/batch.journal";
  const double t0 = now_s();
  while (runs.size() < 2 || now_s() - t0 < seconds) {
    remove_journal(path);
    service::Journal journal = service::Journal::open(path);
    BatchRun r;
    const double t = now_s();
    service::run_batch(fx.jobs, exec, journal, batch_options(fx.jobs.size()));
    r.wall_s = now_s() - t;
    r.records = journal.records();
    const bool last = now_s() - t0 >= seconds && runs.size() >= 1;
    if (append_ms != nullptr && last) {
      // One more append at the batch's final record count, as the batch's
      // own appends pay: a full rewrite of the journal plus fsync.
      service::JobRecord probe = r.records.begin()->second;
      for (int k = 0; k < 8; ++k) {
        probe.id = "probe-" + std::to_string(k);
        const double ta = now_s();
        journal.append(probe);
        append_ms->push_back((now_s() - ta) * 1e3);
      }
    }
    runs.push_back(std::move(r));
  }
  remove_journal(path);
  return runs;
}

void check_batches(const Args& args, const Fixture& fx, const std::vector<BatchRun>& runs,
                   Report& report) {
  std::size_t jobs = 0, bad = 0;
  std::string first_bad;
  double worst_exact = 0.0;
  std::size_t compared = 0;
  for (const BatchRun& r : runs) {
    for (const service::JobSpec& j : fx.jobs) {
      const auto it = r.records.find(j.id);
      const bool perturbed = jobs == 0 && args.perturb == "batch_status";
      ++jobs;
      const bool ok = it != r.records.end() && !perturbed &&
                      it->second.status == service::JobStatus::kSucceeded &&
                      it->second.degradation.empty() && std::isfinite(it->second.mean_na) &&
                      it->second.mean_na > 0.0 && std::isfinite(it->second.sigma_na) &&
                      it->second.sigma_na > 0.0;
      if (!ok) {
        ++bad;
        if (first_bad.empty())
          first_bad = j.id + (it == r.records.end() ? " (no record)" : ": " + it->second.error);
      }
      if (j.id.rfind("direct-", 0) == 0 && it != r.records.end()) {
        const auto fft = r.records.find("fft-" + j.id.substr(7));
        if (fft == r.records.end()) continue;
        const double bump = compared == 0 ? perturbation(args, "batch_exact", 1e-9) : 1.0;
        worst_exact = std::max({worst_exact, rel_diff(fft->second.mean_na, it->second.mean_na),
                                rel_diff(fft->second.sigma_na * bump, it->second.sigma_na)});
        ++compared;
      }
    }
  }
  report.add_attempted(jobs, bad);
  report.check("batch_status", bad == 0,
               std::to_string(jobs) + " jobs, " + std::to_string(bad) + " not ok" +
                   (first_bad.empty() ? "" : ", first: " + first_bad));
  char buf[160];
  std::snprintf(buf, sizeof buf, "%zu direct/fft pairs, worst rel %.3g, tol 1e-12", compared,
                worst_exact);
  report.check("batch_exact", compared > 0 && worst_exact <= 1e-12, buf);
}

double jobs_per_s(const Fixture& fx, const std::vector<BatchRun>& runs) {
  double wall = 0.0;
  for (const BatchRun& r : runs) wall += r.wall_s;
  return static_cast<double>(fx.jobs.size() * runs.size()) / wall;
}

// Direct calls of the estimator rungs, the correlation mapping and the exact
// paths on the manifest's own inputs, each in its own span.
void probe_rungs(Fixture& fx, Tracer& tracer) {
  const core::LeakageEstimator facade(*fx.chars);
  for (const service::JobSpec& j : fx.jobs) {
    if (j.kind != "estimate") continue;
    const std::string& spec = j.params.at("usage");
    const Family* fam = nullptr;
    for (const Family& f : fx.families)
      if (f.spec == spec) fam = &f;
    const std::string& p = j.params.at("p");
    const double sp = p == "max" ? facade.resolve_signal_probability(fam->usage) : std::stod(p);
    core::DesignCharacteristics d;
    d.usage = fam->usage;
    d.gate_count = std::stoul(j.params.at("gates"));
    const double die_nm = std::stod(j.params.at("die_um")) * 1000.0;
    d.width_nm = d.height_nm = die_nm;
    const placement::Floorplan fp = core::floorplan_for_design(d);
    const core::RandomGate rg = [&] {
      Span s(tracer, "charlib.corr_map");
      return core::RandomGate(*fx.chars, fam->usage, sp, core::CorrelationMode::kAnalytic);
    }();
    {
      Span s(tracer, "core.linear");
      core::estimate_linear(rg, fp);
    }
    {
      Span s(tracer, "core.integral_rect");
      core::estimate_integral_rect(rg, fp);
    }
    {
      Span s(tracer, "core.integral_polar");
      core::estimate_integral_polar(rg, fp);
    }
  }
  const core::ExactEstimator exact(*fx.chars, 0.5, core::CorrelationMode::kAnalytic);
  for (const service::JobSpec& j : fx.jobs) {
    if (j.kind != "netlist") continue;
    const netlist::Netlist nl = netlist::load_netlist(fx.lib, j.params.at("netlist"));
    const auto pl = [&] {
      Span s(tracer, "placement.build");
      return std::make_unique<placement::Placement>(
          &nl, placement::Floorplan::for_gate_count(nl.size()));
    }();
    core::ExactOptions opts;
    opts.threads = 1;
    const bool fft = j.params.at("exact_method") == "fft";
    opts.method = fft ? core::ExactMethod::kFft : core::ExactMethod::kDirect;
    Span s(tracer, fft ? "core.exact_fft" : "core.exact_direct");
    exact.estimate(*pl, opts);
  }
}

}  // namespace

int run_placed_batch(const Args& args, Tracer& tracer, Report& report) {
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  for (int rep = 0; rep < (args.small ? 1 : 3); ++rep) {
    fx.reset();
    const double t0 = now_s();
    fx = set_up(args, tracer);
    setup_s.push_back(now_s() - t0);
  }

  std::vector<BatchRun> untraced;
  if (tracer.on()) untraced = measure(args, *fx, *fx->runner, args.seconds / 2, nullptr);

  auto& registry = util::metrics::Registry::instance();
  const util::metrics::Snapshot before = registry.snapshot();
  TimedExecutor timed(*fx->runner, tracer);
  std::vector<double> append_ms;
  const std::vector<BatchRun> runs =
      tracer.on() ? measure(args, *fx, timed, args.seconds / 2, &append_ms)
                  : measure(args, *fx, *fx->runner, args.seconds, nullptr);
  const util::metrics::Snapshot after = registry.snapshot();

  std::vector<double> job_ms;
  for (const BatchRun& r : runs)
    for (const auto& [id, rec] : r.records) job_ms.push_back(rec.wall_ms);
  report.metric("setup_s", median(setup_s), "s");
  report.metric("ops_per_s", jobs_per_s(*fx, runs), "1/s");
  report.metric("op_ms_p50", median(job_ms), "ms");
  report.metric("op_ms_p95", quantile(job_ms, 0.95), "ms");
  report.info("batches", static_cast<double>(runs.size()));
  report.info("jobs_per_batch", static_cast<double>(fx->jobs.size()));
  report.info("job_samples", static_cast<double>(job_ms.size()));

  std::vector<BatchRun> all = runs;
  all.insert(all.end(), untraced.begin(), untraced.end());
  check_batches(args, *fx, all, report);

  if (tracer.on()) {
    const std::vector<double> exec_ms = timed.execute_ms();
    double exec_total = 0.0, wall = 0.0;
    for (double v : exec_ms) exec_total += v;
    for (const BatchRun& r : runs) wall += r.wall_s;
    const auto workers = static_cast<double>(bench_threads());
    const std::size_t jobs = fx->jobs.size() * runs.size();

    // Cross-check against the histograms the service records itself: one
    // batch.attempt_ms per executed attempt, covering at least the execute
    // time; job.phase.estimate_ms inside it.
    std::size_t disagreements = 0;
    const HistDelta attempts = hist_delta(before, after, "batch.attempt_ms");
    const double phase_sum = hist_delta(before, after, "job.phase.estimate_ms").sum;
    if (attempts.count != exec_ms.size()) {
      ++disagreements;
      std::fprintf(stderr,
                   "rgbench: cross-check: batch.attempt_ms has %llu attempts, %zu executed\n",
                   static_cast<unsigned long long>(attempts.count), exec_ms.size());
    }
    if (attempts.sum < 0.99 * exec_total || phase_sum > 1.01 * exec_total) {
      ++disagreements;
      std::fprintf(stderr,
                   "rgbench: cross-check: attempt %.3f ms, phase.estimate %.3f ms, "
                   "execute %.3f ms\n",
                   attempts.sum, phase_sum, exec_total);
    }

    const util::metrics::Snapshot rung_before = registry.snapshot();
    probe_rungs(*fx, tracer);
    const util::metrics::Snapshot rung_after = registry.snapshot();
    for (const char* rung : {"linear", "integral_rect", "integral_polar", "exact_fft",
                             "exact_direct"}) {
      const std::string span = std::string("core.") + rung;
      const std::string name = std::string("estimator.") + rung + "_ms";
      const HistDelta got = hist_delta(rung_before, rung_after, name);
      // The polar rung falls back to the rectangular one on dies smaller
      // than the correlation range; that inner call records under
      // integral_rect too, inside the benchmark's core.integral_polar span.
      const bool rect = std::string(rung) == "integral_rect";
      const double spans = tracer.total_ms(span) +
                           (rect ? tracer.total_ms("core.integral_polar") : 0.0);
      const std::size_t calls = tracer.count(span) +
                                (rect ? tracer.count("core.integral_polar") : 0);
      const bool count_ok =
          rect ? got.count >= tracer.count(span) && got.count <= calls : got.count == calls;
      if (!count_ok || got.sum > spans) {
        ++disagreements;
        std::fprintf(stderr, "rgbench: cross-check: %s %llu calls %.3f ms, spans %zu %.3f ms\n",
                     name.c_str(), static_cast<unsigned long long>(got.count), got.sum, calls,
                     spans);
      }
      report.metric(span + "_ms", median(tracer.durations_ms(span)), "ms");
    }

    report.metric("service.execute_ms", median(exec_ms), "ms");
    report.metric("service.overhead_ms",
                  (workers * wall * 1e3 - exec_total) / static_cast<double>(jobs), "ms");
    report.metric("service.journal_append_ms", median(append_ms), "ms");
    report.metric("service.workers", workers, "count");
    report.metric("charlib.corr_map_ms", median(tracer.durations_ms("charlib.corr_map")), "ms");
    report.metric("netlist.load_ms", median(tracer.durations_ms("netlist.load")), "ms");
    report.metric("placement.build_ms", median(tracer.durations_ms("placement.build")), "ms");
    report.metric("cells.build_ms", median(tracer.durations_ms("cells.build")), "ms");
    report.metric("charlib.characterize_ms", median(tracer.durations_ms("charlib.characterize")),
                  "ms");
    report.metric("trace.overhead_pct",
                  (jobs_per_s(*fx, untraced) / jobs_per_s(*fx, runs) - 1.0) * 100.0, "%");
    report.metric("trace.xcheck_disagreements", static_cast<double>(disagreements), "count");
  }
  return 0;
}

}  // namespace rgbench

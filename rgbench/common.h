#pragma once
// Shared plumbing of the rgleak benchmark: command-line arguments, the
// benchmark-side span recorder, order statistics, output checks and the
// result line.
//
// Spans are recorded only around the benchmark's own calls into the
// library's public API (one span per call, named "<layer>.<what>"); nothing
// inside src/ is instrumented. With tracing off a Span is a no-op, so the
// untraced run pays no clock reads for it.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cells/library.h"
#include "process/variation.h"
#include "util/metrics.h"

namespace rgbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced problem sizes for the benchmark's own tests.
  bool small = false;
  /// Name of an output check whose guarded value is perturbed before the
  /// check runs (non-vacuity tests); empty = none.
  std::string perturb;
  /// Scratch directory for generated files (libraries, netlists, journals).
  std::string workdir;
};

/// Worker threads the benchmark may use: min(4, hardware concurrency).
std::size_t bench_threads();

double now_s();

/// Benchmark process: L = 40 nm with 2.5 nm total sigma split evenly between
/// D2D and WID, sigma_Vt = 20 mV, exponential WID correlation of 100 um.
/// These are the defaults of `rgleak characterize`.
rgleak::process::ProcessVariation bench_process();

// ---------------------------------------------------------------- tracing

class Tracer {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  ///< index of the enclosing span on the same thread
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int open(const char* name);
  void close(int index);

  /// Durations (ms) of every closed span with this exact name, in order.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Sum of durations (ms) of spans with this name.
  double total_ms(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  std::size_t size() const;

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// RAII span; a no-op when the tracer is off. Spans opened on one thread nest
/// through a thread-local stack, so a span's parent is the innermost span
/// open on the same thread.
class Span {
 public:
  Span(Tracer& tracer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_ = -1;
};

// -------------------------------------------------------------- statistics

/// Linear-interpolated quantile (q in [0,1]) of a non-empty sample.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

// ----------------------------------------------------------------- report

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records an output check; a failed check fails the run.
  void check(const std::string& name, bool ok, const std::string& detail);
  /// Free-form context printed on the info line (sample counts, bases).
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);

  void add_attempted(std::size_t n, std::size_t failed = 0) {
    attempted_ += n;
    failed_ += failed;
  }
  bool correct() const;

  /// Prints the info line and, last, the result line. With trace off only
  /// `e2e` metrics are printed, with trace on only `layer` metrics; a
  /// listed metric the workload does not produce is printed as 0.
  void print(bool trace, const std::vector<std::pair<std::string, std::string>>& e2e,
             const std::vector<std::pair<std::string, std::string>>& layer) const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failed_checks_;
  std::size_t checks_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Observations a util::metrics histogram gained between two snapshots.
struct HistDelta {
  std::uint64_t count = 0;
  double sum = 0.0;
};
HistDelta hist_delta(const rgleak::util::metrics::Snapshot& before,
                     const rgleak::util::metrics::Snapshot& after, const std::string& name);

/// Relative difference |a - b| / |b| (|a - b| when b == 0).
double rel_diff(double a, double b);

/// Multiplier applied to the value guarded by check `name`: 1 normally,
/// (1 + delta) when the run was asked to perturb that check.
double perturbation(const Args& args, const std::string& name, double delta);

/// Process peak resident set size, MiB.
double peak_rss_mb();

/// Filesystem type of `path` (e.g. "ext4", "overlay", "tmpfs").
std::string filesystem_type(const std::string& path);

/// Appends the build fingerprint known at compile time and at run time
/// (compiler, build type, CPU count, seed, workdir filesystem) to `report`.
void fingerprint(Report& report, const Args& args);

int run_corner_signoff(const Args& args, Tracer& tracer, Report& report);
int run_mc_validate(const Args& args, Tracer& tracer, Report& report);
int run_placed_batch(const Args& args, Tracer& tracer, Report& report);

}  // namespace rgbench

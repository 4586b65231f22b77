// rgbench: the rgleak benchmark program. One process runs one workload for a
// fixed measuring window, checks the library's outputs, and prints the
// metrics as one JSON line (the last line of stdout). See README.md for the
// workloads, the metrics and which layer each metric belongs to.
//
//   rgbench --workload corner_signoff|mc_validate|placed_batch --seed N
//           --seconds S --trace 0|1 --workdir DIR [--small 1] [--perturb CHECK]

#include <sys/stat.h>

#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

// End-to-end metrics, printed with --trace 0 on every workload. An
// "operation" is a corner (corner_signoff), one Monte-Carlo trial
// (mc_validate) or one batch job (placed_batch); see README.md.
const MetricList kEndToEnd = {
    {"setup_s", "s"},       {"ops_per_s", "1/s"},    {"op_ms_p50", "ms"},
    {"op_ms_p95", "ms"},    {"peak_rss_mb", "MiB"},
};

// Per-layer metrics, printed with --trace 1 on every workload; a layer a
// workload does not call reads 0 there.
const MetricList kPerLayer = {
    {"cells.build_ms", "ms"},
    {"charlib.characterize_ms", "ms"},
    {"charlib.characterize_share", "ratio"},
    {"charlib.fit_us", "us"},
    {"device.solve_us", "us"},
    {"device.solves", "count"},
    {"device.share", "ratio"},
    {"core.estimate_ms", "ms"},
    {"mc.trial_us", "us"},
    {"mc.construct_ms", "ms"},
    {"mc.field_share", "ratio"},
    {"mc.scaling_eff", "ratio"},
    {"mc.threads", "count"},
    {"process.field_us", "us"},
    {"process.padded_cells", "count"},
    {"process.field_bytes", "bytes"},
    {"charlib.table_eval_ns", "ns"},
    {"charlib.corr_map_ms", "ms"},
    {"core.linear_ms", "ms"},
    {"core.integral_rect_ms", "ms"},
    {"core.integral_polar_ms", "ms"},
    {"core.exact_fft_ms", "ms"},
    {"core.exact_direct_ms", "ms"},
    {"service.execute_ms", "ms"},
    {"service.overhead_ms", "ms"},
    {"service.journal_append_ms", "ms"},
    {"service.workers", "count"},
    {"netlist.load_ms", "ms"},
    {"placement.build_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.xcheck_disagreements", "count"},
    {"trace.spans", "count"},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "rgbench: %s\nusage: rgbench --workload corner_signoff|mc_validate|placed_batch "
               "--seed N --seconds S --trace 0|1 --workdir DIR [--small 0|1] [--perturb CHECK]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rgbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("flag " + flag + " needs a value").c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--small") args.small = std::stoi(value) != 0;
      else if (flag == "--perturb") args.perturb = value;
      else if (flag == "--workdir") args.workdir = value;
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag + ": " + value).c_str());
    }
  }
  if (args.workdir.empty()) return usage("--workdir is required");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
  ::mkdir(args.workdir.c_str(), 0755);

  int (*run)(const rgbench::Args&, rgbench::Tracer&, rgbench::Report&) = nullptr;
  if (args.workload == "corner_signoff") run = rgbench::run_corner_signoff;
  else if (args.workload == "mc_validate") run = rgbench::run_mc_validate;
  else if (args.workload == "placed_batch") run = rgbench::run_placed_batch;
  else return usage(("unknown workload '" + args.workload + "'").c_str());

  rgbench::Tracer tracer(args.trace);
  rgbench::Report report;
  try {
    if (run(args, tracer, report) != 0) return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rgbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  report.metric("peak_rss_mb", rgbench::peak_rss_mb(), "MiB");
  report.metric("trace.spans", static_cast<double>(tracer.size()), "count");
  rgbench::fingerprint(report, args);
  report.print(args.trace, kEndToEnd, kPerLayer);
  return report.correct() ? 0 : 1;
}

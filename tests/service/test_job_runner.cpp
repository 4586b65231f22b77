// JobRunner on the planner's ladder: a job's time-budget trail reaches the
// journal, a memory downgrade still honours the job's time budget, and
// retries enter the ladder at the same rungs as before the planner merge.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "../test_util.h"
#include "charlib/io.h"
#include "math/rng.h"
#include "netlist/io.h"
#include "netlist/random_circuit.h"
#include "service/batch_runner.h"
#include "service/job_runner.h"
#include "service/journal.h"

namespace rgleak::service {
namespace {

using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_library;

std::string temp_path(const char* name) { return std::string(::testing::TempDir()) + name; }

// A characterized library and two netlists: 64 gates (8x8 sites) and 400
// gates (20x20 sites, where the direct exact rung's predicted bytes exceed
// the linear rung's).
struct RunnerInputs {
  std::string lib = temp_path("rgleak_runner_lib.rgchar");
  std::string small = temp_path("rgleak_runner_64.rgnl");
  std::string large = temp_path("rgleak_runner_400.rgnl");

  RunnerInputs() {
    charlib::save_characterization(mini_chars_analytic(), lib);
    netlist::UsageHistogram usage;
    usage.alphas.assign(mini_library().size(), 0.0);
    usage.alphas[0] = 0.6;
    usage.alphas[1] = 0.4;
    math::Rng gen(41);
    netlist::save_netlist(generate_random_circuit(mini_library(), usage, 64, gen), small);
    netlist::save_netlist(generate_random_circuit(mini_library(), usage, 400, gen), large);
  }
};

const RunnerInputs& inputs() {
  static const RunnerInputs in;
  return in;
}

JobSpec estimate_job(const std::string& id, std::map<std::string, std::string> extra) {
  JobSpec j;
  j.id = id;
  j.kind = "estimate";
  j.params = {{"lib", inputs().lib},
              {"gates", "300"},
              {"die_um", "20x20"},
              {"usage", "INV_X1:3,NAND2_X1:2"},
              {"p", "0.5"}};
  j.params.insert(extra.begin(), extra.end());
  return j;
}

JobSpec netlist_job(const std::string& id, const std::string& netlist,
                    std::map<std::string, std::string> extra) {
  JobSpec j;
  j.id = id;
  j.kind = "netlist";
  j.params = {{"lib", inputs().lib}, {"netlist", netlist}};
  j.params.insert(extra.begin(), extra.end());
  return j;
}

std::map<std::string, JobRecord> run_journaled(const std::vector<JobSpec>& jobs,
                                               const core::Planner& planner) {
  JobRunner runner(mini_library());
  runner.set_planner(planner);
  BatchOptions opts;
  opts.isolate = ExecIsolation::kInProcess;
  opts.workers = 1;
  Journal journal = Journal::open("");
  run_batch(jobs, runner, journal, opts);
  return journal.records();
}

TEST(JobRunnerPlanner, JournalCarriesTheTimeBudgetTrail) {
  const auto records = run_journaled(
      {estimate_job("est", {{"method", "linear"}, {"time_budget_s", "1e-7"}}),
       netlist_job("fft", inputs().small,
                   {{"exact", "true"}, {"exact_method", "fft"}, {"time_budget_s", "1e-7"}})},
      core::Planner());

  const JobRecord& est = records.at("est");
  ASSERT_EQ(est.status, JobStatus::kSucceeded) << est.error;
  EXPECT_EQ(est.method, "integral_polar");
  EXPECT_EQ(est.degradation.rfind("linear predicted ", 0), 0u) << est.degradation;

  const JobRecord& fft = records.at("fft");
  ASSERT_EQ(fft.status, JobStatus::kSucceeded) << fft.error;
  EXPECT_EQ(fft.method, "integral_polar");
  EXPECT_EQ(fft.degradation.rfind("exact_fft predicted ", 0), 0u) << fft.degradation;
  EXPECT_NE(fft.degradation.find("; linear predicted "), std::string::npos) << fft.degradation;
  EXPECT_EQ(fft.degradation.find("exact_direct"), std::string::npos)
      << "the time ladder steps from an exact rung straight to linear: " << fft.degradation;
}

TEST(JobRunnerPlanner, MemoryDowngradeKeepsTheTimeBudget) {
  // 80 KiB at 400 sites: the exact rungs do not fit, linear (64 KiB) does —
  // but linear is predicted over the 1e-7 s budget, so the integral answers
  // and the trail carries both walks.
  core::Planner planner;
  planner.mem_budget_bytes = 80u << 10;
  const auto records = run_journaled(
      {netlist_job("fft", inputs().large,
                   {{"exact", "true"}, {"exact_method", "fft"}, {"time_budget_s", "1e-7"}})},
      planner);

  const JobRecord& fft = records.at("fft");
  ASSERT_EQ(fft.status, JobStatus::kSucceeded) << fft.error;
  EXPECT_EQ(fft.method, "integral_polar");
  EXPECT_EQ(fft.degradation.rfind("mem: exact_fft->linear; linear predicted ", 0), 0u)
      << fft.degradation;
}

TEST(JobRunnerPlanner, RetriesEnterTheLadderOneStepLowerPerFailure) {
  JobRunner runner(mini_library());
  const auto method_at = [&](const JobSpec& job, int degrade) {
    return runner.execute(job, nullptr, degrade).method;
  };

  // estimate: its top rung is linear, so every retry answers from the
  // integral.
  const JobSpec est = estimate_job("est", {{"method", "linear"}});
  EXPECT_EQ(method_at(est, 0), "linear");
  EXPECT_EQ(method_at(est, 1), "integral_polar");
  EXPECT_EQ(method_at(est, 2), "integral_polar");

  // netlist: exact -> linear -> integral, counted from the exact rung.
  const JobSpec fft =
      netlist_job("fft", inputs().small, {{"exact", "true"}, {"exact_method", "fft"}});
  EXPECT_EQ(method_at(fft, 0), "exact_fft");
  EXPECT_EQ(method_at(fft, 1), "linear");
  EXPECT_EQ(method_at(fft, 2), "integral_polar");

  const JobSpec direct =
      netlist_job("dir", inputs().small, {{"exact", "true"}, {"exact_method", "direct"}});
  EXPECT_EQ(method_at(direct, 0), "exact_direct");
  EXPECT_EQ(method_at(direct, 1), "linear");
  EXPECT_EQ(method_at(direct, 2), "integral_polar");

  // A netlist job that asked for no exact answer already sits on linear.
  const JobSpec lin = netlist_job("lin", inputs().small, {});
  EXPECT_EQ(method_at(lin, 0), "linear");
  EXPECT_EQ(method_at(lin, 1), "linear");
  EXPECT_EQ(method_at(lin, 2), "integral_polar");
}

}  // namespace
}  // namespace rgleak::service

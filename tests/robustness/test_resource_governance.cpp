// Resource governance end to end: a 64-job mixed batch under a memory budget
// a quarter of the unconstrained peak completes with zero crashes, walks the
// admission ladder deterministically, and rejects what cannot fit with typed
// ResourceErrors; injected std::bad_alloc at every charged arena surfaces as
// a located, retryable resource failure the batch recovers from.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
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
#include "util/error.h"
#include "util/failpoint.h"
#include "util/memory.h"

namespace rgleak::service {
namespace {

using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_library;
using util::FailpointAction;
using util::MemoryBudget;
using util::ScopedFailpoint;

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

struct GovInputs {
  std::string lib_path = temp_path("rgleak_gov_lib.rgchar");
  std::string netlist_path = temp_path("rgleak_gov_netlist.rgnl");

  GovInputs() {
    charlib::save_characterization(mini_chars_analytic(), lib_path);
    netlist::UsageHistogram usage;
    usage.alphas.assign(mini_library().size(), 0.0);
    usage.alphas[0] = 0.5;
    usage.alphas[1] = 0.3;
    usage.alphas[2] = 0.2;
    math::Rng gen(97);
    netlist::save_netlist(generate_random_circuit(mini_library(), usage, 64, gen), netlist_path);
  }
};

const GovInputs& inputs() {
  static const GovInputs in;
  return in;
}

// Restores the process-wide budget when a test exits, so governance tests
// cannot leak a limit into unrelated suites.
struct ProcessLimitGuard {
  ~ProcessLimitGuard() { MemoryBudget::process().set_limit(0); }
};

// 64 jobs: 16 estimates, 16 linear netlists, 8 exact-FFT, 8 exact-direct,
// 16 Monte Carlo. Fixed ids and parameters: the governed outcome must be
// reproducible record for record.
std::vector<JobSpec> mixed_manifest() {
  std::ostringstream ms;
  int n = 0;
  for (int i = 0; i < 16; ++i)
    ms << "{\"id\":\"job-" << n++ << "-est\",\"kind\":\"estimate\",\"lib\":\"" << inputs().lib_path
       << "\",\"gates\":" << (200 + 20 * i)
       << ",\"die_um\":\"20x20\",\"usage\":\"INV_X1:3,NAND2_X1:2,NOR2_X1:1\",\"p\":0.5}\n";
  for (int i = 0; i < 16; ++i)
    ms << "{\"id\":\"job-" << n++ << "-lin\",\"kind\":\"netlist\",\"lib\":\"" << inputs().lib_path
       << "\",\"netlist\":\"" << inputs().netlist_path << "\"}\n";
  for (int i = 0; i < 8; ++i)
    ms << "{\"id\":\"job-" << n++ << "-fft\",\"kind\":\"netlist\",\"lib\":\"" << inputs().lib_path
       << "\",\"netlist\":\"" << inputs().netlist_path
       << "\",\"exact\":true,\"exact_method\":\"fft\",\"threads\":2}\n";
  for (int i = 0; i < 8; ++i)
    ms << "{\"id\":\"job-" << n++ << "-dir\",\"kind\":\"netlist\",\"lib\":\"" << inputs().lib_path
       << "\",\"netlist\":\"" << inputs().netlist_path
       << "\",\"exact\":true,\"exact_method\":\"direct\"}\n";
  for (int i = 0; i < 16; ++i)
    ms << "{\"id\":\"job-" << n++ << "-mc\",\"kind\":\"mc\",\"lib\":\"" << inputs().lib_path
       << "\",\"netlist\":\"" << inputs().netlist_path << "\",\"trials\":10,\"seed\":" << (100 + i)
       << "}\n";
  std::istringstream is(ms.str());
  return parse_manifest(is, "governed.jsonl");
}

BatchOptions gov_options() {
  BatchOptions opts;
  // Asserts on in-parent state (MemoryBudget::process() peaks, failpoint hit
  // counters): pin in-process even under the CI RGLEAK_ISOLATE override.
  opts.isolate = ExecIsolation::kInProcess;
  opts.workers = 4;
  opts.retry.max_attempts = 2;
  opts.retry.backoff.base_ms = 1.0;
  opts.retry.backoff.cap_ms = 5.0;
  opts.job_deadline_s = 30.0;
  return opts;
}

std::map<std::string, JobRecord> run_governed(const std::vector<JobSpec>& jobs,
                                              std::uint64_t budget, BatchSummary* out_summary) {
  MemoryBudget::process().set_limit(budget);
  core::Planner gov;
  gov.mem_budget_bytes = budget;
  JobRunner runner(mini_library());
  runner.set_planner(gov);
  Journal journal = Journal::open("");
  const BatchSummary s = run_batch(jobs, runner, journal, gov_options());
  if (out_summary != nullptr) *out_summary = s;
  return journal.records();
}

TEST(ResourceGovernance, QuarterBudgetBatchCompletesWithTypedOutcomes) {
  const ProcessLimitGuard guard;
  const std::vector<JobSpec> jobs = mixed_manifest();
  ASSERT_EQ(jobs.size(), 64u);

  // Reference pass: unconstrained, tracking the peak charged bytes.
  MemoryBudget::process().set_limit(0);
  MemoryBudget::process().reset_peak();
  BatchSummary unconstrained;
  const auto reference = run_governed(jobs, 0, &unconstrained);
  EXPECT_EQ(unconstrained.succeeded, 64u) << "unconstrained mixed batch must be clean";
  const std::uint64_t peak = MemoryBudget::process().peak();
  EXPECT_GT(peak, 0u) << "arenas charged nothing; governance would be vacuous";

  // Governed pass at a quarter of that peak — floored at 128 KiB so the
  // admission model (sized for real designs) still has rungs that fit the
  // mini fixtures.
  const std::uint64_t budget = std::max<std::uint64_t>(peak / 4, 128u << 10);
  BatchSummary s;
  const auto records = run_governed(jobs, budget, &s);

  EXPECT_EQ(s.total, 64u);
  EXPECT_EQ(s.accounted(), 64u);
  EXPECT_EQ(s.interrupted, 0u);
  EXPECT_FALSE(s.stopped);
  EXPECT_EQ(records.size(), 64u);

  std::size_t degraded = 0;
  for (const auto& [id, rec] : records) {
    if (rec.status == JobStatus::kFailed) {
      // The only legal failure under a memory budget is the typed one.
      EXPECT_NE(rec.error.find("\"error\":\"resource\""), std::string::npos)
          << id << ": " << rec.error;
    }
    if (!rec.degradation.empty()) {
      ++degraded;
      EXPECT_EQ(rec.degradation.rfind("mem: ", 0), 0u) << id << ": " << rec.degradation;
      EXPECT_EQ(rec.status, JobStatus::kSucceeded)
          << id << ": a degraded admission that still failed";
    }
  }
  EXPECT_GT(degraded + s.failed, 0u) << "quarter budget exerted no pressure at all";

  // Deterministic ladder: the same budget walks every job to the same rung.
  const auto replay = run_governed(jobs, budget, nullptr);
  ASSERT_EQ(replay.size(), records.size());
  for (const auto& [id, rec] : records) {
    const JobRecord& again = replay.at(id);
    EXPECT_EQ(again.status, rec.status) << id;
    EXPECT_EQ(again.method, rec.method) << id;
    EXPECT_EQ(again.degradation, rec.degradation) << id;
  }
}

TEST(ResourceGovernance, FftJobsDegradeToDirectUnderTightBudget) {
  const ProcessLimitGuard guard;
  const std::vector<JobSpec> jobs = mixed_manifest();
  // 128 KiB: below the FFT rung's prediction at these site counts, above the
  // direct and linear rungs, below one MC worker.
  const auto records = run_governed(jobs, 128u << 10, nullptr);
  for (const auto& [id, rec] : records) {
    if (id.find("-fft") != std::string::npos) {
      EXPECT_EQ(rec.status, JobStatus::kSucceeded) << id;
      EXPECT_EQ(rec.degradation, "mem: exact_fft->exact_direct") << id;
    } else if (id.find("-mc") != std::string::npos) {
      EXPECT_EQ(rec.status, JobStatus::kFailed) << id << ": one MC worker must not fit";
      EXPECT_NE(rec.error.find("\"error\":\"resource\""), std::string::npos) << id;
    } else {
      EXPECT_EQ(rec.status, JobStatus::kSucceeded) << id << ": " << rec.error;
      EXPECT_TRUE(rec.degradation.empty()) << id << ": " << rec.degradation;
    }
  }
}

// One batch job per arena site, with a one-shot bad_alloc injected at that
// site: the first attempt fails as a resource error, the retry succeeds —
// the batch absorbs allocation failure at every charged arena.
TEST(ResourceGovernance, AllocFailpointAtEveryArenaIsTypedAndRetryable) {
  const ProcessLimitGuard guard;
  MemoryBudget::process().set_limit(0);

  struct Case {
    const char* site;
    const char* manifest;
  };
  const std::string mc_job = std::string("{\"id\":\"j\",\"kind\":\"mc\",\"lib\":\"") +
                             inputs().lib_path + "\",\"netlist\":\"" + inputs().netlist_path +
                             "\",\"trials\":5}";
  const std::string fft_job = std::string("{\"id\":\"j\",\"kind\":\"netlist\",\"lib\":\"") +
                              inputs().lib_path + "\",\"netlist\":\"" + inputs().netlist_path +
                              "\",\"exact\":true,\"exact_method\":\"fft\"}";
  const std::string dir_job = std::string("{\"id\":\"j\",\"kind\":\"netlist\",\"lib\":\"") +
                              inputs().lib_path + "\",\"netlist\":\"" + inputs().netlist_path +
                              "\",\"exact\":true,\"exact_method\":\"direct\"}";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"mc.workspace.alloc", mc_job},
      {"process.sampler.alloc", mc_job},
      {"math.fft.plan.alloc", mc_job},
      {"core.exact.fft.alloc", fft_job},
      {"core.exact.direct.alloc", dir_job},
  };

  for (const auto& [site, manifest] : cases) {
    SCOPED_TRACE(site);
    std::istringstream is(manifest);
    const std::vector<JobSpec> jobs = parse_manifest(is, "alloc.jsonl");
    const ScopedFailpoint alloc(site, FailpointAction::kAlloc, 1);

    JobRunner runner(mini_library());
    Journal journal = Journal::open("");
    const BatchSummary s = run_batch(jobs, runner, journal, gov_options());

    EXPECT_EQ(util::Failpoints::hits(site), 1u) << "failpoint never reached";
    EXPECT_EQ(s.succeeded, 1u) << "retry after the one-shot bad_alloc must succeed";
    EXPECT_EQ(s.retries, 1u);
    const JobRecord rec = journal.records().at("j");
    EXPECT_EQ(rec.attempts, 2);
    EXPECT_EQ(rec.status, JobStatus::kSucceeded);
  }
}

// A persistent allocation failure ends as a terminal typed record that a
// resumed batch honors without re-running the job.
TEST(ResourceGovernance, PersistentAllocFailureIsTerminalAndResumable) {
  const ProcessLimitGuard guard;
  MemoryBudget::process().set_limit(0);
  const std::string manifest = std::string("{\"id\":\"doomed\",\"kind\":\"mc\",\"lib\":\"") +
                               inputs().lib_path + "\",\"netlist\":\"" + inputs().netlist_path +
                               "\",\"trials\":5}";
  std::istringstream is(manifest);
  const std::vector<JobSpec> jobs = parse_manifest(is, "alloc.jsonl");

  const std::string journal_path = temp_path("rgleak_gov_resume.journal");
  std::remove(journal_path.c_str());
  {
    const ScopedFailpoint alloc("mc.workspace.alloc", FailpointAction::kAlloc, SIZE_MAX);
    JobRunner runner(mini_library());
    Journal journal = Journal::open(journal_path);
    const BatchSummary s = run_batch(jobs, runner, journal, gov_options());
    EXPECT_EQ(s.failed, 1u);
    const JobRecord rec = journal.records().at("doomed");
    EXPECT_EQ(rec.attempts, 2) << "resource failures are retryable";
    EXPECT_NE(rec.error.find("\"error\":\"resource\""), std::string::npos) << rec.error;
    EXPECT_NE(rec.error.find("worker workspace"), std::string::npos)
        << rec.error << ": resource errors must locate the arena";
  }
  // Resume with the failure injection gone: the terminal record is honored.
  {
    JobRunner runner(mini_library());
    Journal journal = Journal::open(journal_path);
    const BatchSummary s = run_batch(jobs, runner, journal, gov_options());
    EXPECT_EQ(s.skipped, 1u);
    EXPECT_EQ(s.succeeded + s.failed, 0u);
  }
  std::remove(journal_path.c_str());
}

// Admission rejections at the floor surface in the journal exactly like any
// other structured failure — parseable round trip including the new fields.
TEST(ResourceGovernance, JournalRoundTripsDegradationAndBeats) {
  JobRecord rec;
  rec.id = "rt";
  rec.status = JobStatus::kSucceeded;
  rec.attempts = 2;
  rec.mean_na = 12.5;
  rec.sigma_na = 1.25;
  rec.method = "exact_direct";
  rec.degradation = "mem: exact_fft->exact_direct";
  rec.beats = 4242;
  const std::string line = journal_record_json(rec);
  const JobRecord back = parse_journal_record(line, "test", 1);
  EXPECT_EQ(back.degradation, rec.degradation);
  EXPECT_EQ(back.beats, rec.beats);
  EXPECT_EQ(back.method, rec.method);
}

}  // namespace
}  // namespace rgleak::service

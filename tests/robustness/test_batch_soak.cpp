// Batch-layer soak: 200 real jobs through the production JobRunner under a
// randomized (but deterministically seeded) matrix of armed failpoints. The
// contract under fire: the batch process never dies, the queue never wedges,
// and every manifest job ends as success or a structured failure record.
// Also: crash-only resume — a batch stopped mid-flight and resumed from its
// journal must not re-run completed jobs, must not duplicate records, and
// must converge to the same results as an uninterrupted run.
// The *Concurrent* soak runs under TSan via scripts/tsan_check.sh.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
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
#include "util/run_control.h"

namespace rgleak::service {
namespace {

using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_library;
using util::FailpointAction;
using util::Failpoints;
using util::RunControl;
using util::ScopedFailpoint;

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

// On-disk inputs the manifests reference: a characterized mini library and a
// small random netlist, written once per process.
struct SoakInputs {
  std::string lib_path = temp_path("rgleak_soak_lib.rgchar");
  std::string netlist_path = temp_path("rgleak_soak_netlist.rgnl");

  SoakInputs() {
    charlib::save_characterization(mini_chars_analytic(), lib_path);
    netlist::UsageHistogram usage;
    usage.alphas.assign(mini_library().size(), 0.0);
    usage.alphas[0] = 0.5;
    usage.alphas[1] = 0.3;
    usage.alphas[2] = 0.2;
    math::Rng gen(41);
    netlist::save_netlist(generate_random_circuit(mini_library(), usage, 64, gen), netlist_path);
  }
};

const SoakInputs& inputs() {
  static const SoakInputs in;
  return in;
}

// A deterministic 200-job manifest mixing every job kind with a sprinkling of
// permanently-broken jobs, rendered as JSONL and parsed through the real
// manifest parser.
std::vector<JobSpec> soak_manifest(std::mt19937& rng) {
  std::ostringstream ms;
  for (int i = 0; i < 200; ++i) {
    const std::string id = "job-" + std::to_string(i);
    const int roll = static_cast<int>(rng() % 100);
    if (roll < 35) {
      ms << "{\"id\":\"" << id << "\",\"kind\":\"estimate\",\"lib\":\"" << inputs().lib_path
         << "\",\"gates\":" << (200 + rng() % 600)
         << ",\"die_um\":\"20x20\",\"usage\":\"INV_X1:3,NAND2_X1:2,NOR2_X1:1\""
         << ",\"method\":\"" << (roll % 2 == 0 ? "linear" : "auto") << "\",\"p\":0.5}\n";
    } else if (roll < 55) {
      ms << "{\"id\":\"" << id << "\",\"kind\":\"netlist\",\"lib\":\"" << inputs().lib_path
         << "\",\"netlist\":\"" << inputs().netlist_path << "\"}\n";
    } else if (roll < 70) {
      const char* method = roll % 3 == 0 ? "fft" : (roll % 3 == 1 ? "direct" : "auto");
      ms << "{\"id\":\"" << id << "\",\"kind\":\"netlist\",\"lib\":\"" << inputs().lib_path
         << "\",\"netlist\":\"" << inputs().netlist_path << "\",\"exact\":true,\"exact_method\":\""
         << method << "\",\"threads\":2}\n";
    } else if (roll < 85) {
      ms << "{\"id\":\"" << id << "\",\"kind\":\"mc\",\"lib\":\"" << inputs().lib_path
         << "\",\"netlist\":\"" << inputs().netlist_path << "\",\"trials\":"
         << (10 + rng() % 20) << ",\"seed\":" << (rng() % 1000) << "}\n";
    } else if (roll < 92) {
      ms << "{\"id\":\"" << id << "\",\"kind\":\"characterize\",\"out\":\""
         << temp_path(("rgleak_soak_out_" + std::to_string(i) + ".rgchar").c_str()) << "\"}\n";
    } else if (roll < 96) {
      // Permanently broken: unknown kind (ConfigError, never retried).
      ms << "{\"id\":\"" << id << "\",\"kind\":\"frobnicate\"}\n";
    } else {
      // Permanently broken: estimate without its required parameters.
      ms << "{\"id\":\"" << id << "\",\"kind\":\"estimate\",\"gates\":10}\n";
    }
  }
  std::istringstream is(ms.str());
  return parse_manifest(is, "soak.jsonl");
}

// Arms 12 failpoint sites with randomized-but-seeded finite counts: the
// matrix covers injection into manifest-referenced io, the estimators (throw
// and NaN), the MC engine, the thread pool, the atomic writer, and the
// service layer itself.
struct FailpointMatrix {
  std::vector<std::string> sites;

  explicit FailpointMatrix(std::mt19937& rng) {
    const auto arm = [&](const char* site, FailpointAction action, std::size_t count,
                         unsigned delay_ms = 0) {
      Failpoints::arm(site, action, count, delay_ms);
      sites.push_back(site);
    };
    const auto roll = [&] { return 1 + static_cast<std::size_t>(rng() % 3); };
    arm("service.job.execute", FailpointAction::kThrow, 3);  // fixed: asserted below
    arm("mc.trial", rng() % 2 == 0 ? FailpointAction::kThrow : FailpointAction::kDelay, roll(), 1);
    arm("estimate.linear.cov", FailpointAction::kNan, roll());
    arm("exact.direct_tile", FailpointAction::kThrow, roll());
    arm("exact.fft_pair", FailpointAction::kThrow, roll());
    arm("thread_pool.task", FailpointAction::kThrow, roll());
    arm("util.atomic_file.write", FailpointAction::kThrow, roll());
    arm("util.atomic_file.commit", FailpointAction::kThrow, 1);
    arm("service.journal.append", FailpointAction::kThrow, roll());
    arm("charlib.io.read_line", FailpointAction::kThrow, 1);
    arm("netlist.io.read_line", FailpointAction::kThrow, 1);
    arm("netlist.io.open", FailpointAction::kThrow, 1);
  }
  ~FailpointMatrix() { Failpoints::disarm_all(); }
};

BatchOptions soak_options() {
  BatchOptions opts;
  // These soaks assert on in-parent state (Failpoints::hits, RecordingRunner
  // side effects): pin in-process even under the CI RGLEAK_ISOLATE override.
  // The process-isolated crash soak lives in test_process_isolation_soak.cpp.
  opts.isolate = ExecIsolation::kInProcess;
  opts.workers = 4;
  opts.queue_depth = 8;
  opts.retry.max_attempts = 3;
  opts.retry.backoff.base_ms = 1.0;  // keep 200 jobs' worth of retries fast
  opts.retry.backoff.cap_ms = 5.0;
  opts.job_deadline_s = 20.0;  // no single job may wedge the soak
  return opts;
}

TEST(BatchSoak, ConcurrentRandomizedFailpointMatrix) {
  std::mt19937 rng(20260805u);
  const std::vector<JobSpec> jobs = soak_manifest(rng);
  ASSERT_EQ(jobs.size(), 200u);

  const FailpointMatrix matrix(rng);
  ASSERT_GE(matrix.sites.size(), 10u);

  // Journal into the artifacts directory ci.yml uploads when the soak fails,
  // so a red CI run ships the failure records with it.
  std::filesystem::create_directories("rgleak_soak_artifacts");
  std::remove("rgleak_soak_artifacts/soak.journal");  // stale journals would skip jobs
  JobRunner runner(mini_library());
  Journal journal = Journal::open("rgleak_soak_artifacts/soak.journal");
  const BatchSummary s = run_batch(jobs, runner, journal, soak_options());

  // The process is alive and the queue drained: every job is accounted for
  // exactly once, none interrupted (nothing requested a stop).
  EXPECT_EQ(s.total, 200u);
  EXPECT_EQ(s.accounted(), 200u);
  EXPECT_EQ(s.interrupted, 0u);
  EXPECT_FALSE(s.stopped);
  EXPECT_EQ(s.succeeded + s.failed, 200u);

  // Every manifest job carries a terminal record; failures are structured
  // error JSON, not stringly chaos.
  const auto records = journal.records();
  EXPECT_EQ(records.size(), 200u);
  for (const JobSpec& job : jobs) {
    const auto it = records.find(job.id);
    ASSERT_NE(it, records.end()) << job.id << " has no journal record";
    const JobRecord& rec = it->second;
    EXPECT_GE(rec.attempts, 1) << job.id;
    if (rec.status == JobStatus::kSucceeded) {
      EXPECT_TRUE(rec.error.empty()) << job.id;
    } else {
      EXPECT_EQ(rec.status, JobStatus::kFailed) << job.id;
      EXPECT_NE(rec.error.find("\"error\":"), std::string::npos)
          << job.id << ": unstructured failure '" << rec.error << "'";
    }
  }

  // The matrix actually fired: the service.job.execute site has a fixed
  // count of 3 and 200 executions to burn it on, and each firing is a foreign
  // exception the runner must have retried.
  EXPECT_EQ(Failpoints::hits("service.job.execute"), 3u);
  EXPECT_GE(s.retries, 3u);
  std::size_t sites_fired = 0;
  for (const std::string& site : matrix.sites)
    if (Failpoints::hits(site) > 0) ++sites_fired;
  EXPECT_GE(sites_fired, 3u) << "failpoint matrix barely exercised";

  // The broken jobs in the mix must have failed permanently (one attempt).
  for (const JobSpec& job : jobs) {
    if (job.kind != "frobnicate") continue;
    EXPECT_EQ(records.at(job.id).status, JobStatus::kFailed) << job.id;
    EXPECT_EQ(records.at(job.id).attempts, 1) << job.id << ": config errors must not retry";
  }
}

// Wraps the production runner, recording which jobs actually executed — the
// probe for "completed jobs are not re-run on resume".
class RecordingRunner : public Executor {
 public:
  explicit RecordingRunner(const cells::StdCellLibrary& library) : inner_(library) {}

  JobOutput execute(const JobSpec& job, const util::RunControl* watchdog, int degrade) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      executed_.insert(job.id);
    }
    return inner_.execute(job, watchdog, degrade);
  }

  std::set<std::string> take_executed() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::set<std::string> out;
    out.swap(executed_);
    return out;
  }

 private:
  JobRunner inner_;
  std::mutex mutex_;
  std::set<std::string> executed_;
};

TEST(BatchSoak, CrashResumeMatchesTheUninterruptedRun) {
  std::mt19937 rng(7u);
  std::vector<JobSpec> jobs = soak_manifest(rng);
  jobs.resize(40);  // enough to interrupt mid-flight, small enough to be quick

  // Reference: the uninterrupted run (no journal file, no failpoints).
  std::map<std::string, JobRecord> reference;
  {
    JobRunner runner(mini_library());
    Journal journal = Journal::open("");
    const BatchSummary s = run_batch(jobs, runner, journal, soak_options());
    EXPECT_EQ(s.accounted(), jobs.size());
    reference = journal.records();
  }

  const std::string journal_path = temp_path("rgleak_soak_resume.journal");
  std::remove(journal_path.c_str());

  // Phase 1: stop the batch mid-flight (paced by a delay failpoint so the
  // stop lands while jobs are still queued), journal on disk.
  std::set<std::string> terminal_after_stop;
  {
    RecordingRunner runner(mini_library());
    Journal journal = Journal::open(journal_path);
    RunControl run;
    BatchOptions opts = soak_options();
    opts.workers = 2;
    opts.run = &run;
    const ScopedFailpoint pace("service.job.execute", FailpointAction::kDelay, SIZE_MAX, 2);
    std::thread stopper([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      run.request_stop();
    });
    const BatchSummary s = run_batch(jobs, runner, journal, opts);
    stopper.join();
    EXPECT_EQ(s.accounted(), jobs.size());
    // A job is terminal or it is nothing: interrupted jobs left no record.
    EXPECT_EQ(s.succeeded + s.failed, journal.size());
    for (const auto& [id, rec] : journal.records()) terminal_after_stop.insert(id);
  }

  // Phase 2: resume from the on-disk journal. Jobs already terminal must be
  // skipped without re-executing; everything else runs to terminal now.
  {
    RecordingRunner runner(mini_library());
    Journal journal = Journal::open(journal_path);
    EXPECT_EQ(journal.size(), terminal_after_stop.size());  // reopen is lossless
    const BatchSummary s = run_batch(jobs, runner, journal, soak_options());
    EXPECT_EQ(s.accounted(), jobs.size());
    EXPECT_EQ(s.skipped, terminal_after_stop.size());
    EXPECT_EQ(s.interrupted, 0u);
    EXPECT_FALSE(s.stopped);
    for (const std::string& id : runner.take_executed())
      EXPECT_EQ(terminal_after_stop.count(id), 0u) << id << " re-ran despite a journal record";
  }

  // The resumed journal holds exactly one record per job, no duplicates
  // (open() would refuse a journal with duplicated records), and the results
  // match the uninterrupted reference bit for bit.
  const Journal final_journal = Journal::open(journal_path);
  const auto records = final_journal.records();
  EXPECT_EQ(records.size(), jobs.size());
  for (const JobSpec& job : jobs) {
    const auto it = records.find(job.id);
    ASSERT_NE(it, records.end()) << job.id;
    const auto ref = reference.find(job.id);
    ASSERT_NE(ref, reference.end()) << job.id;
    EXPECT_EQ(it->second.status, ref->second.status) << job.id;
    EXPECT_EQ(it->second.mean_na, ref->second.mean_na) << job.id;
    EXPECT_EQ(it->second.sigma_na, ref->second.sigma_na) << job.id;
    EXPECT_EQ(it->second.method, ref->second.method) << job.id;
  }
  std::remove(journal_path.c_str());
}

}  // namespace
}  // namespace rgleak::service

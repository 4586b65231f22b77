#pragma once
// Batch orchestration: manifest in, journal out, failures isolated.
//
// run_batch() feeds a manifest's jobs through a bounded JobQueue into a pool
// of worker threads, each attempt wrapped in a per-job watchdog RunControl
// (deadline + parent link to the batch-level stop source). The contract is
// fault isolation: a job that throws, returns NaN, or blows its deadline
// produces a structured JobRecord in the journal — the batch itself never
// dies and never wedges.
//
// Retry loop per job: a retryable failure (see service/retry.h) is retried up
// to RetryPolicy::max_attempts times, with a deterministic exponential
// backoff between attempts. Each retry also bumps the executor's `degrade`
// level, walking estimate jobs down the cost ladder so the retry is cheaper
// than the attempt that failed.
//
// Stop semantics: when the batch-level RunControl stops (SIGINT, a test),
// jobs already finished keep their records, jobs mid-flight or still queued
// get NO record — the crash-only journal re-runs them on resume. Backoff
// sleeps are chunked and poll the stop source, so cancellation latency is
// bounded by one chunk, not one backoff.

#include <cstddef>
#include <vector>

#include "service/executor.h"
#include "service/job_queue.h"
#include "service/journal.h"
#include "service/retry.h"
#include "util/clock.h"
#include "util/run_control.h"

namespace rgleak::service {

/// How job attempts execute relative to the supervisor process.
enum class ExecIsolation {
  /// Resolve from the RGLEAK_ISOLATE environment variable ("process" forces
  /// process isolation); otherwise in-process. The CLI leaves this default so
  /// CI can force sandboxing across an existing test matrix.
  kDefault,
  /// Attempts run on the worker thread, in the batch process (the historical
  /// behavior; fastest, but a segfaulting job kills the whole batch).
  kInProcess,
  /// Every attempt forks a sandboxed, rlimited child (service/subprocess.h).
  /// A crashing job becomes a journaled CrashError instead of killing the
  /// batch. POSIX only: run_batch throws ConfigError where unsupported.
  kProcess,
};

struct BatchOptions {
  RetryPolicy retry;
  /// Queue bound; the backpressure knob.
  std::size_t queue_depth = 32;
  /// Worker threads. 0 = hardware concurrency.
  std::size_t workers = 1;
  /// Per-job watchdog deadline, seconds; 0 = none. Applies to each *attempt*.
  double job_deadline_s = 0.0;
  /// Stall watchdog: cancel a job attempt whose progress heartbeat
  /// (RunControl::beats) stays flat this long, seconds; 0 = off. Unlike the
  /// deadline, a stalled stop is keyed to *progress*, not elapsed time — a
  /// slow-but-polling job is left alone. Cancellation latency is bounded by
  /// one watchdog poll interval (timeout/4, at most 50 ms) past the timeout.
  double stall_timeout_s = 0.0;
  /// Time source for backoff sleeps; null = the shared SystemClock.
  util::Clock* clock = nullptr;
  /// Batch-level stop source (SIGINT handler, a test). Linked as the parent
  /// of every per-job watchdog.
  const util::RunControl* run = nullptr;
  /// Attempt isolation mode (see ExecIsolation).
  ExecIsolation isolate = ExecIsolation::kDefault;
  /// Process isolation: seconds between the cooperative SIGTERM and the
  /// SIGKILL when stopping a sandboxed child. Each child's rlimits derive
  /// from the batch: RLIMIT_AS is twice the process MemoryBudget limit plus
  /// slack when one is set (the tracked budget stays the soft limit that
  /// throws typed ResourceErrors; the rlimit is the hard backstop for
  /// untracked leaks), and RLIMIT_CPU is 4x job_deadline_s plus slack when a
  /// deadline is set (a backstop for children wedged in signal-blind loops).
  double isolate_grace_s = 2.0;
};

struct BatchSummary {
  std::size_t total = 0;        ///< jobs in the manifest
  std::size_t skipped = 0;      ///< already terminal in the journal (resume)
  std::size_t succeeded = 0;
  std::size_t failed = 0;       ///< terminal structured failures
  std::size_t interrupted = 0;  ///< batch stopped first; no record, will re-run
  std::size_t retries = 0;      ///< retry attempts consumed across the batch
  std::size_t stalls = 0;       ///< job attempts cancelled by the stall watchdog
  std::size_t crashes = 0;      ///< sandboxed child deaths (ErrorCode::kCrash)
  std::size_t journal_write_failures = 0;
  std::size_t queue_high_watermark = 0;
  bool stopped = false;         ///< the batch-level stop source fired

  /// Every manifest job is accounted for exactly once.
  std::size_t accounted() const {
    return skipped + succeeded + failed + interrupted;
  }
};

/// Runs `jobs` to terminal outcomes. Jobs already present in `journal` are
/// skipped (crash-only resume); every other job ends as exactly one of
/// succeeded / failed (with a journal record) or interrupted (no
/// record, batch stop). Never throws for job-level failures; throws only for
/// batch-level misconfiguration (ContractViolation).
BatchSummary run_batch(const std::vector<JobSpec>& jobs, Executor& executor, Journal& journal,
                       const BatchOptions& options = {});

}  // namespace rgleak::service

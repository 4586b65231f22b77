#pragma once
// Fork-per-job sandbox: run one Executor attempt in a child process.
//
// `rgleak batch --isolate=process` routes every job attempt through
// run_job_in_subprocess(): the supervisor forks (no exec — the child keeps
// the parent's loaded library, caches, and armed failpoints), applies
// per-child rlimits, and the child executes the job with its own RunControl,
// then reports back over a pipe as exactly one JSONL record (service/jsonio)
// before _exit-ing with the taxonomy exit code. The parent never trusts the
// child to be well-behaved:
//
//  * a child killed by a signal (SIGSEGV, SIGABRT, SIGBUS, the OOM-killer's
//    SIGKILL) or exiting without a result record becomes a CrashError
//    (ErrorCode::kCrash) naming the signal and a tail of the child's captured
//    stderr — a journaled, retryable failure instead of a dead batch;
//  * a child that exits cleanly with an error record has its taxonomy error
//    reconstructed and rethrown, so retry classification is identical to
//    in-process mode;
//  * stop/deadline propagation: when the parent-side watchdog stops (batch
//    SIGINT, per-job deadline, stall monitor) the child gets SIGTERM — its
//    handler requests a cooperative stop, it drains and reports — and after a
//    grace period, SIGKILL;
//  * heartbeats cross the boundary through one shared-memory counter: the
//    child's RunControl mirrors every beat into a MAP_SHARED page the
//    parent-side watchdog adopts, so the PR 7 stall monitor needs no change.
//
// The child never runs C++ static destructors or atexit handlers (_exit
// only), never touches the journal, and re-raises nothing into the parent's
// address space. Jobs may carry a "failpoint" parameter (the CLI spec
// grammar, see util/failpoint.h); it is armed inside the child only, which is
// how the crash matrix injects SIGSEGV/SIGABRT per job without taking the
// supervisor down.
//
// POSIX only; on other platforms run_job_in_subprocess throws ConfigError.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "service/executor.h"
#include "util/error.h"
#include "util/run_control.h"

namespace rgleak::service {

/// Mixin carried by errors the supervisor reconstructs from a child's result
/// record. It preserves the child's own error_json rendering verbatim, so the
/// journal record for a sandboxed failure is byte-identical to what in-process
/// execution would have written (a ParseError keeps its source/line/column
/// fields, which a round trip through code+message alone would lose).
class ChildReport {
 public:
  explicit ChildReport(std::string json) : json_(std::move(json)) {}
  virtual ~ChildReport() = default;

  /// The error_json line the child rendered, or "" if it sent none.
  const std::string& error_json_line() const { return json_; }

 private:
  std::string json_;
};

/// A taxonomy error reported by a sandboxed child over its result pipe and
/// rethrown in the supervisor: same ErrorCode (hence same retry
/// classification and exit code) as the original throw inside the child.
class ChildReportedError : public std::runtime_error, public Error, public ChildReport {
 public:
  ChildReportedError(ErrorCode code, const std::string& message, std::string json);
};

/// A non-taxonomy ("foreign") exception reported by a sandboxed child:
/// deliberately NOT an rgleak::Error, so the batch retry loop treats it
/// exactly like an in-process foreign exception (assume transient, retry).
class ChildForeignError : public std::runtime_error, public ChildReport {
 public:
  ChildForeignError(const std::string& message, std::string json);
};

/// Sandbox limits and knobs for one child, derived by the batch runner from
/// the job's admission decision (memory budget -> RLIMIT_AS, job deadline ->
/// RLIMIT_CPU backstop).
struct SubprocessOptions {
  /// Seconds between SIGTERM (cooperative stop) and SIGKILL.
  double term_grace_s = 2.0;
  /// RLIMIT_CPU for the child, seconds; 0 = unlimited. A hard backstop under
  /// the cooperative deadline: a child spinning in a signal-blind loop dies
  /// on SIGXCPU/SIGKILL instead of running forever.
  std::uint64_t cpu_limit_s = 0;
  /// RLIMIT_AS for the child, bytes; 0 = unlimited. Derived from the batch
  /// memory budget so a leaking job gets std::bad_alloc (-> typed
  /// ResourceError in the child) instead of dragging the host into swap.
  std::uint64_t as_limit_bytes = 0;
};

/// True when this build can fork job children (POSIX).
bool subprocess_supported();

/// Runs one job attempt in a forked, rlimited child of the current process.
/// Returns the child's JobOutput on success. Throws the reconstructed
/// taxonomy error when the child reports a typed failure, CrashError when it
/// dies on a signal or vanishes without a record, and the watchdog's
/// DeadlineExceeded when the attempt was stopped from the parent side.
/// `watchdog` must be the attempt-scoped control (non-null); its beats()
/// reflect the child's heartbeats while the child runs.
JobOutput run_job_in_subprocess(Executor& executor, const JobSpec& job,
                                util::RunControl* watchdog, int degrade,
                                const SubprocessOptions& options);

}  // namespace rgleak::service

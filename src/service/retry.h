#pragma once
// Retry classification and backoff for batch jobs.
//
// Retryability derives from the error taxonomy (util/error.h), not from
// string matching:
//
//   retryable  — NumericalError (an injected NaN or an ill-conditioned draw
//                may not recur; the executor also degrades the method one
//                rung down the PR-3 cost ladder on each retry),
//                DeadlineExceeded (the per-job watchdog fired; a degraded,
//                cheaper method may fit), IoError (transient OS refusals),
//                and foreign / unclassified exceptions (e.g. an armed
//                failpoint) — what we cannot classify we assume transient.
//   permanent  — ParseError and ConfigError (the input will not improve on a
//                second read), ContractViolation (a bug; retrying hides it).
//
// Retries are bounded per job (max_attempts, and kMaxCrashRetries for
// crashes), so a pathological manifest cannot turn into a retry storm.

#include "util/error.h"

namespace rgleak::service {

/// Whether a failed attempt may be retried.
bool retryable(ErrorCode code);

/// Exponential backoff between the attempts of one job.
struct BackoffPolicy {
  double base_ms = 50.0;   ///< the first delay
  double cap_ms = 5000.0;  ///< upper clamp on any delay
};

/// Delay before retry `k` (1-based): min(cap, base * 2^(k-1)).
double backoff_ms(const BackoffPolicy& policy, int retry);

struct RetryPolicy {
  /// Total attempts per job (1 = no retries).
  int max_attempts = 3;
  BackoffPolicy backoff;
};

/// Retries allowed per job for crash outcomes (ErrorCode::kCrash) — a child
/// killed by SIGSEGV/SIGABRT/OOM. Capped below max_attempts because a crash
/// is usually reproducible: one fresh-child retry catches the flaky case
/// without replaying a deterministic segfault N times.
constexpr int kMaxCrashRetries = 1;

}  // namespace rgleak::service

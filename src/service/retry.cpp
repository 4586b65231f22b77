#include "service/retry.h"

#include <algorithm>
#include <cmath>

namespace rgleak::service {

bool retryable(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNumerical:
    case ErrorCode::kDeadline:
    case ErrorCode::kIo:
    // Resource pressure is transient at batch scope: peers finishing release
    // budget, and the retry ladder re-admits at a cheaper rung.
    case ErrorCode::kResource:
    // A crashed sandbox child may have hit a data race or a corrupted cache;
    // the retry runs in a fresh child. Bounded separately by the per-job
    // crash cap (kMaxCrashRetries) — a reproducible segfault should fail
    // fast, not burn the whole attempt budget.
    case ErrorCode::kCrash:
      return true;
    case ErrorCode::kParse:
    case ErrorCode::kConfig:
    case ErrorCode::kContract:
      return false;
  }
  return true;
}

double backoff_ms(const BackoffPolicy& policy, int retry) {
  const double base = std::max(0.0, policy.base_ms);
  return std::min(policy.cap_ms, std::ldexp(base, std::max(0, retry - 1)));
}

}  // namespace rgleak::service

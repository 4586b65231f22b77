#include "service/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "service/subprocess.h"
#include "util/error.h"
#include "util/memory.h"
#include "util/metrics.h"
#include "util/require.h"
#include "util/trace.h"

namespace rgleak::service {

namespace {

// One published attempt per worker, observed by the stall monitor. The mutex
// orders publish/clear in the worker against the monitor's beat sampling, so
// the monitor never reads a RunControl whose attempt already returned (the
// control is stack-local to the attempt).
struct WorkerSlot {
  std::mutex m;
  util::RunControl* active = nullptr;  // null between attempts
  std::uint64_t last_beats = 0;
  std::chrono::steady_clock::time_point last_change{};
  bool fired = false;  // stop already requested for this flat stretch
};

// Batch-level instruments, registered once per run_batch call and recorded
// with single relaxed atomic ops from workers, the producer, and the stall
// monitor concurrently (see FORMATS.md metrics-json for the names).
struct BatchMetrics {
  util::metrics::Counter& started = util::metrics::Registry::instance().counter("batch.jobs.started");
  util::metrics::Counter& succeeded =
      util::metrics::Registry::instance().counter("batch.jobs.succeeded");
  util::metrics::Counter& failed = util::metrics::Registry::instance().counter("batch.jobs.failed");
  util::metrics::Counter& retried =
      util::metrics::Registry::instance().counter("batch.jobs.retried");
  util::metrics::Counter& crashed =
      util::metrics::Registry::instance().counter("batch.jobs.crashed");
  util::metrics::Counter& stalled =
      util::metrics::Registry::instance().counter("batch.jobs.stalled");
  util::metrics::Gauge& queue_depth =
      util::metrics::Registry::instance().gauge("batch.queue.depth");
  util::metrics::Histogram& attempt_ms =
      util::metrics::Registry::instance().histogram("batch.attempt_ms");
};

struct BatchState {
  BatchMetrics metrics;
  Executor* executor = nullptr;
  Journal* journal = nullptr;
  const BatchOptions* opts = nullptr;
  util::Clock* clock = nullptr;
  // Resolved isolation: when true every attempt forks a sandboxed child.
  bool use_subprocess = false;
  SubprocessOptions sub_opts;
  // unique_ptr for stable addresses: workers and the monitor hold raw slots.
  std::vector<std::unique_ptr<WorkerSlot>> slots;

  std::atomic<std::size_t> succeeded{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> interrupted{0};
  std::atomic<std::size_t> retries{0};
  std::atomic<std::size_t> stalls{0};
  std::atomic<std::size_t> crashes{0};

  bool stopping() const { return opts->run != nullptr && opts->run->should_stop(); }
};

// Publishes the current attempt's watchdog to the worker's slot for the
// monitor to sample, and clears it on every exit path from the attempt.
class SlotGuard {
 public:
  SlotGuard(WorkerSlot* slot, util::RunControl* watchdog) : slot_(slot) {
    if (slot_ == nullptr) return;
    std::lock_guard<std::mutex> lock(slot_->m);
    slot_->active = watchdog;
    slot_->last_beats = watchdog->beats();
    slot_->last_change = std::chrono::steady_clock::now();
    slot_->fired = false;
  }
  ~SlotGuard() {
    if (slot_ == nullptr) return;
    std::lock_guard<std::mutex> lock(slot_->m);
    slot_->active = nullptr;
  }
  SlotGuard(const SlotGuard&) = delete;
  SlotGuard& operator=(const SlotGuard&) = delete;

 private:
  WorkerSlot* slot_;
};

// Sleeps `ms` on the batch clock in small chunks, polling the stop source
// between chunks so a SIGINT does not have to wait out a long backoff.
void backoff_sleep(BatchState& st, double ms) {
  constexpr double kChunkMs = 25.0;
  while (ms > 0.0 && !st.stopping()) {
    const double chunk = std::min(ms, kChunkMs);
    st.clock->sleep_ms(chunk);
    ms -= chunk;
  }
}

void record_terminal(BatchState& st, JobRecord rec) {
  if (rec.status == JobStatus::kSucceeded) {
    st.succeeded.fetch_add(1, std::memory_order_relaxed);
    st.metrics.succeeded.add();
  } else {
    st.failed.fetch_add(1, std::memory_order_relaxed);
    st.metrics.failed.add();
  }
  st.journal->append(rec);
}

// Runs one job to a terminal outcome (or abandons it on batch stop). Never
// lets an exception escape: that is the fault-isolation contract.
void run_one(BatchState& st, const JobSpec& job, WorkerSlot* slot) {
  JobRecord rec;
  rec.id = job.id;
  int degrade = 0;
  int crash_count = 0;  // kCrash outcomes for this job, capped separately

  st.metrics.started.add();
  for (;;) {
    if (st.stopping()) {
      st.interrupted.fetch_add(1, std::memory_order_relaxed);
      return;  // no record: the job re-runs on resume
    }
    ++rec.attempts;

    bool retry = false;
    bool done = false;
    {
      // Attempt scope: the trace span and latency histogram cover the
      // execution only, never the backoff sleep that may follow.
      util::trace::Span span("attempt", job.id, static_cast<int>(rec.attempts));
      util::RunControl watchdog;
      watchdog.set_parent(st.opts->run);
      if (st.opts->job_deadline_s > 0.0) watchdog.arm_budget(st.opts->job_deadline_s);
      const SlotGuard guard(slot, &watchdog);

      const double t0 = st.clock->now_ms();
      try {
        const JobOutput out =
            st.use_subprocess
                ? run_job_in_subprocess(*st.executor, job, &watchdog, degrade, st.sub_opts)
                : st.executor->execute(job, &watchdog, degrade);
        rec.wall_ms += st.clock->now_ms() - t0;
        rec.beats += watchdog.beats();
        rec.status = JobStatus::kSucceeded;
        rec.mean_na = out.mean_na;
        rec.sigma_na = out.sigma_na;
        rec.method = out.method;
        rec.degradation = out.degradation;
        rec.error.clear();
        record_terminal(st, rec);
        done = true;
      } catch (const rgleak::Error& e) {
        rec.wall_ms += st.clock->now_ms() - t0;
        rec.beats += watchdog.beats();
        // An error reconstructed from a sandboxed child carries the child's
        // own error_json rendering; using it keeps journal records
        // byte-identical to in-process mode (ParseError location fields
        // survive the pipe).
        const auto* child = dynamic_cast<const ChildReport*>(&e);
        rec.error = (child != nullptr && !child->error_json_line().empty())
                        ? child->error_json_line()
                        : error_json(e);
        retry = retryable(e.code());
        if (e.code() == ErrorCode::kCrash) {
          st.crashes.fetch_add(1, std::memory_order_relaxed);
          st.metrics.crashed.add();
          span.set_outcome("crash");
          // Crashes get their own, tighter cap: a deterministic segfault
          // should fail after kMaxCrashRetries fresh children, not
          // max_attempts.
          if (++crash_count > kMaxCrashRetries) retry = false;
        } else {
          span.set_outcome("error");
        }
      } catch (const std::exception& e) {
        // Outside the taxonomy (e.g. an armed failpoint): assume transient.
        rec.wall_ms += st.clock->now_ms() - t0;
        rec.beats += watchdog.beats();
        const auto* child = dynamic_cast<const ChildReport*>(&e);
        rec.error = (child != nullptr && !child->error_json_line().empty())
                        ? child->error_json_line()
                        : error_json(e);
        retry = true;
        span.set_outcome("error");
      }
      st.metrics.attempt_ms.observe(st.clock->now_ms() - t0);
    }
    if (done) return;

    if (st.stopping()) {
      // The failure is indistinguishable from a cancellation side effect
      // (the watchdog forwards the batch stop into the engines); abandon
      // without a record so the job re-runs cleanly on resume.
      st.interrupted.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (!retry || rec.attempts >= st.opts->retry.max_attempts) {
      rec.status = JobStatus::kFailed;
      record_terminal(st, rec);
      return;
    }
    st.retries.fetch_add(1, std::memory_order_relaxed);
    st.metrics.retried.add();
    ++degrade;  // next attempt answers from a cheaper rung
    backoff_sleep(st, backoff_ms(st.opts->retry.backoff, degrade));
  }
}

}  // namespace

BatchSummary run_batch(const std::vector<JobSpec>& jobs, Executor& executor, Journal& journal,
                       const BatchOptions& options) {
  RGLEAK_REQUIRE(options.retry.max_attempts >= 1, "batch needs max_attempts >= 1");
  RGLEAK_REQUIRE(options.queue_depth >= 1, "batch needs queue_depth >= 1");

  BatchSummary summary;
  summary.total = jobs.size();

  BatchState st;
  st.executor = &executor;
  st.journal = &journal;
  st.opts = &options;
  st.clock = options.clock != nullptr ? options.clock : &util::SystemClock::instance();

  // Resolve attempt isolation. kDefault consults RGLEAK_ISOLATE so CI can
  // force sandboxing through an unmodified call site; an explicit kInProcess
  // or kProcess from the caller always wins (tests that assert on in-parent
  // side effects pin kInProcess).
  ExecIsolation isolate = options.isolate;
  if (isolate == ExecIsolation::kDefault) {
    const char* env = std::getenv("RGLEAK_ISOLATE");
    isolate = (env != nullptr && std::strcmp(env, "process") == 0) ? ExecIsolation::kProcess
                                                                   : ExecIsolation::kInProcess;
  }
  if (isolate == ExecIsolation::kProcess) {
    if (!subprocess_supported())
      throw ConfigError("process isolation requested but not supported on this platform");
    st.use_subprocess = true;
    st.sub_opts.term_grace_s = options.isolate_grace_s;
    // Derive the hard caps from the soft limits: the MemoryBudget the child
    // inherits still throws typed ResourceErrors first, and the watchdog
    // cancels cooperatively first; the rlimits only catch what those miss.
    const std::uint64_t soft = util::MemoryBudget::process().limit();
    if (soft > 0) st.sub_opts.as_limit_bytes = soft * 2 + (256ULL << 20);
    if (options.job_deadline_s > 0.0)
      st.sub_opts.cpu_limit_s =
          static_cast<std::uint64_t>(std::ceil(options.job_deadline_s * 4.0)) + 5;
  }

  std::size_t workers = options.workers;
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());

  const bool stall_watch = options.stall_timeout_s > 0.0;
  if (stall_watch) {
    st.slots.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
      st.slots.push_back(std::make_unique<WorkerSlot>());
  }

  JobQueue queue(options.queue_depth);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    WorkerSlot* slot = stall_watch ? st.slots[w].get() : nullptr;
    pool.emplace_back([&st, &queue, slot] {
      while (auto job = queue.pop()) {
        st.metrics.queue_depth.set(static_cast<std::int64_t>(queue.size()));
        run_one(st, *job, slot);
      }
    });
  }

  // The stall monitor samples every worker's published heartbeat counter and
  // cancels (reason kStalled) any attempt whose counter stays flat past the
  // timeout. Sampling never beats (beats()/reason() are observation-only), so
  // the monitor cannot mask a stall it is watching for.
  std::mutex monitor_m;
  std::condition_variable monitor_cv;
  bool monitor_quit = false;
  std::thread monitor;
  if (stall_watch) {
    monitor = std::thread([&] {
      const std::chrono::duration<double> timeout(options.stall_timeout_s);
      const std::chrono::duration<double> poll(
          std::min(options.stall_timeout_s / 4.0, 0.05));
      std::unique_lock<std::mutex> lock(monitor_m);
      while (!monitor_quit) {
        monitor_cv.wait_for(lock, poll, [&] { return monitor_quit; });
        if (monitor_quit) return;
        const auto now = std::chrono::steady_clock::now();
        for (const auto& slot_ptr : st.slots) {
          WorkerSlot& slot = *slot_ptr;
          std::lock_guard<std::mutex> slock(slot.m);
          if (slot.active == nullptr) continue;
          const std::uint64_t beats = slot.active->beats();
          if (beats != slot.last_beats) {
            slot.last_beats = beats;
            slot.last_change = now;
          } else if (!slot.fired && now - slot.last_change >= timeout) {
            slot.active->request_stop(util::StopReason::kStalled);
            slot.fired = true;
            st.stalls.fetch_add(1, std::memory_order_relaxed);
            st.metrics.stalled.add();
          }
        }
      }
    });
  }

  for (const JobSpec& job : jobs) {
    if (journal.has(job.id)) {
      ++summary.skipped;  // crash-only resume: terminal outcomes never re-run
      continue;
    }
    if (st.stopping()) {
      st.interrupted.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const bool queued = queue.push(job);
    st.metrics.queue_depth.set(static_cast<std::int64_t>(queue.size()));
    if (!queued) st.interrupted.fetch_add(1, std::memory_order_relaxed);
  }
  queue.close();
  for (std::thread& t : pool) t.join();
  st.metrics.queue_depth.set(0);
  if (monitor.joinable()) {
    {
      std::lock_guard<std::mutex> lock(monitor_m);
      monitor_quit = true;
    }
    monitor_cv.notify_one();
    monitor.join();
  }

  summary.succeeded = st.succeeded.load();
  summary.failed = st.failed.load();
  summary.interrupted = st.interrupted.load();
  summary.retries = st.retries.load();
  summary.stalls = st.stalls.load();
  summary.crashes = st.crashes.load();
  summary.journal_write_failures = journal.write_failures();
  summary.queue_high_watermark = queue.high_watermark();
  summary.stopped = st.stopping();
  return summary;
}

}  // namespace rgleak::service

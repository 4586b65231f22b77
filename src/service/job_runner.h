#pragma once
// Production Executor: adapts manifest jobs onto the library's engines.
//
// Kinds and their parameters (all values are JSON scalars; paths are
// relative to the process working directory):
//
//   estimate      lib, gates, die_um ("WxH" in um), usage ("CELL:w,..."),
//                 [method=auto|linear|rect|polar] [p=NUM|"max"]
//                 [time_budget_s=S]
//   netlist       lib, netlist, [exact=true] [exact_method=auto|direct|fft]
//                 [threads=N] [time_budget_s=S] [p=NUM]
//   mc            lib, netlist, [trials=200] [seed=777] [threads=1] [p=0.5]
//                 [resample=true]
//   characterize  out, [mode=analytic|mc] [mean_l=40] [sigma_d2d] [sigma_wid]
//                 [sigma_vt] [corr=exponential|...] [corr_scale_um=100]
//                 [samples=N]
//
// Unknown kinds and malformed parameters raise ConfigError (permanent — the
// job fails with a structured record; the batch keeps going). The per-job
// watchdog is threaded into every engine (estimator run controls, MC worker
// polls, characterizer polls), so a wedged job cancels within one chunk.
//
// Cost planning: estimate and netlist jobs run through the runner's
// core::Planner walk, which takes the first rung that fits both the batch
// memory budget and what is left of the job's time_budget_s; its trail is
// journaled as JobOutput::degradation. mc jobs halve their worker count
// until it fits the memory budget.
//
// Retry degradation: each retryable failure enters the estimate/netlist
// kinds one step lower on exact -> linear -> integral (Planner::retry_rung),
// so a job that NaN'd or blew its deadline at an expensive rung retries at a
// cheaper one instead of failing the same way again. mc and characterize
// re-run unchanged (their failures are draw- or io-transient).
//
// Characterized libraries and netlists are cached by path across jobs — a
// manifest sweeping 500 operating points of one design loads it once.

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cells/library.h"
#include "charlib/characterize.h"
#include "core/planner.h"
#include "netlist/netlist.h"
#include "service/executor.h"

namespace rgleak::service {

class JobRunner : public Executor {
 public:
  explicit JobRunner(const cells::StdCellLibrary& library) : library_(&library) {}

  /// Replaces the cost planner (default: built-in predictions, no memory
  /// budget, so every job without a time budget runs exactly as requested).
  void set_planner(const core::Planner& planner) { planner_ = planner; }

  JobOutput execute(const JobSpec& job, const util::RunControl* watchdog,
                    int degrade) override;

 private:
  const cells::StdCellLibrary* library_;
  core::Planner planner_;

  std::mutex cache_mutex_;
  std::map<std::string, charlib::CharacterizedLibrary> chars_cache_;
  std::map<std::string, netlist::Netlist> netlist_cache_;

  const charlib::CharacterizedLibrary& chars_for(const std::string& path);
  const netlist::Netlist& netlist_for(const std::string& path);

  JobOutput run_estimate(const JobSpec& job, const util::RunControl* watchdog, int degrade);
  JobOutput run_netlist(const JobSpec& job, const util::RunControl* watchdog, int degrade);
  JobOutput run_mc(const JobSpec& job, const util::RunControl* watchdog);
  JobOutput run_characterize(const JobSpec& job, const util::RunControl* watchdog);
};

}  // namespace rgleak::service

// Contracts of the performance-oriented MC trial path (DESIGN.md "MC
// performance"): the steady-state trial loop must never allocate, and the
// checkpoint path must not deep-copy worker state.

#include "mc/full_chip_mc.h"

#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.h"
#include "util/alloc_count.h"
#include "math/rng.h"
#include "netlist/random_circuit.h"

namespace rgleak::mc {
namespace {

using rgleak::testing::allocation_count;
using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_library;

netlist::UsageHistogram test_usage() {
  netlist::UsageHistogram u;
  u.alphas.assign(mini_library().size(), 0.0);
  u.alphas[mini_library().index_of("INV_X1")] = 0.6;
  u.alphas[mini_library().index_of("NAND2_X1")] = 0.4;
  return u;
}

placement::Floorplan grid(std::size_t rows, std::size_t cols) {
  placement::Floorplan fp;
  fp.rows = rows;
  fp.cols = cols;
  fp.site_w_nm = 1500.0;
  fp.site_h_nm = 1500.0;
  return fp;
}

TEST(McPerfPath, ThreadedCheckpointedRunIsAllocationLean) {
  // The threaded checkpoint path must stream state through the reused writer
  // buffer instead of deep-copying worker slices: allocations per checkpoint
  // cadence stay bounded by file-I/O setup, independent of sample volume.
  // (An absolute zero is not asserted here — ofstream construction and the
  // thread-pool round trip legitimately allocate a handful of blocks.)
  math::Rng gen(73);
  const netlist::Netlist nl = generate_random_circuit(mini_library(), test_usage(), 64, gen);
  const placement::Placement pl(&nl, grid(8, 8));
  FullChipMcOptions opts;
  opts.trials = 400;
  opts.threads = 2;
  opts.checkpoint_every = 40;
  opts.checkpoint_path = ::testing::TempDir() + "mc_perf_alloc.ckpt";
  FullChipMonteCarlo mc(pl, mini_chars_analytic(), opts);
  const FullChipMcResult r = mc.run();
  EXPECT_EQ(r.trials, 400u);
}

TEST(McPerfPath, SteadyStateTrialLoopDoesNotAllocateFixedStates) {
  math::Rng gen(79);
  const netlist::Netlist nl = generate_random_circuit(mini_library(), test_usage(), 144, gen);
  const placement::Placement pl(&nl, grid(12, 12));
  FullChipMcOptions opts;  // fixed states
  FullChipMonteCarlo mc(pl, mini_chars_analytic(), opts);
  math::Rng rng(5150);
  double sink = 0.0;
  for (int t = 0; t < 5; ++t) sink += mc.sample_total_na(rng);  // warm the workspace

  const std::size_t before = allocation_count();
  for (int t = 0; t < 100; ++t) sink += mc.sample_total_na(rng);
  const std::size_t after = allocation_count();
  EXPECT_EQ(after - before, 0u) << "steady-state trials allocated";
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(McPerfPath, SteadyStateTrialLoopDoesNotAllocateResampledStates) {
  // Per-trial state resampling redraws every gate's table id each trial into
  // the workspace, which must reuse its capacity.
  math::Rng gen(83);
  const netlist::Netlist nl = generate_random_circuit(mini_library(), test_usage(), 144, gen);
  const placement::Placement pl(&nl, grid(12, 12));
  FullChipMcOptions opts;
  opts.resample_states_per_trial = true;
  FullChipMonteCarlo mc(pl, mini_chars_analytic(), opts);
  math::Rng rng(5151);
  double sink = 0.0;
  // Warm-up also has to visit every (cell, state) pair so the lazy table
  // cache is fully populated before the measured region.
  for (int t = 0; t < 40; ++t) sink += mc.sample_total_na(rng);

  const std::size_t before = allocation_count();
  for (int t = 0; t < 100; ++t) sink += mc.sample_total_na(rng);
  const std::size_t after = allocation_count();
  EXPECT_EQ(after - before, 0u) << "steady-state resampled trials allocated";
  EXPECT_TRUE(std::isfinite(sink));
}

}  // namespace
}  // namespace rgleak::mc

// The characterizers fan (cell, state) pairs out over a thread pool. Their
// output must not depend on the pool size, the MC route must reproduce the
// values of the serial characterizer it replaced, and each pair records the
// charlib.* metrics once.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "../test_util.h"
#include "charlib/characterize.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace rgleak::charlib {
namespace {

using rgleak::testing::mini_library;
using rgleak::testing::test_process;

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_identical(const CharacterizedLibrary& a, const CharacterizedLibrary& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t ci = 0; ci < a.size(); ++ci) {
    const std::string name = a.library().cell(ci).name();
    ASSERT_EQ(a.cell(ci).states.size(), b.cell(ci).states.size()) << name;
    for (std::size_t s = 0; s < a.cell(ci).states.size(); ++s) {
      const StateChar& x = a.cell(ci).states[s];
      const StateChar& y = b.cell(ci).states[s];
      EXPECT_TRUE(same_bits(x.mean_na, y.mean_na)) << name << "/" << s;
      EXPECT_TRUE(same_bits(x.sigma_na, y.sigma_na)) << name << "/" << s;
      ASSERT_EQ(x.model.has_value(), y.model.has_value()) << name << "/" << s;
      if (x.model) {
        EXPECT_TRUE(same_bits(x.model->a, y.model->a)) << name << "/" << s;
        EXPECT_TRUE(same_bits(x.model->b, y.model->b)) << name << "/" << s;
        EXPECT_TRUE(same_bits(x.model->c, y.model->c)) << name << "/" << s;
      }
    }
  }
}

McCharOptions pinned_mc_options() {
  McCharOptions opts;
  opts.samples = 400;
  opts.seed = 2024;
  return opts;
}

TEST(CharacterizeParallel, AnalyticLibraryIndependentOfPoolSize) {
  util::ThreadPool one(1), four(4);
  AnalyticCharOptions opts;
  opts.pool = &one;
  const CharacterizedLibrary serial =
      characterize_analytic(rgleak::testing::full_library(), test_process(), opts);
  opts.pool = &four;
  const CharacterizedLibrary threaded =
      characterize_analytic(rgleak::testing::full_library(), test_process(), opts);
  expect_identical(serial, threaded);
}

TEST(CharacterizeParallel, McLibraryIndependentOfPoolSize) {
  util::ThreadPool one(1), four(4);
  McCharOptions opts = pinned_mc_options();
  opts.pool = &one;
  const CharacterizedLibrary serial =
      characterize_monte_carlo(mini_library(), test_process(), opts);
  opts.pool = &four;
  const CharacterizedLibrary threaded =
      characterize_monte_carlo(mini_library(), test_process(), opts);
  expect_identical(serial, threaded);
}

// Recorded with the serial characterizer and the bisection network solver it
// replaced. Cells whose networks are single devices or two-stacks reproduce
// bit for bit; NAND3's three-stacks go through the bracketed chain solve,
// which agrees with the bisection to ~1e-13.
struct Pin {
  const char* cell;
  std::size_t state;
  double mean_na;
  double sigma_na;
};
constexpr Pin kPins[] = {
  // cell, state, mean (nA), sigma (nA)
  {"INV_X1", 0, 20.231283466411323, 5.9149356005536564},
  {"INV_X1", 1, 14.851200906175116, 3.8375697079769973},
  {"NAND2_X1", 0, 4.7803437355222655, 1.294036541830391},
  {"NAND2_X1", 1, 40.266012181585673, 11.225365392962674},
  {"NAND2_X1", 2, 34.649502490099024, 10.221850272383083},
  {"NAND2_X1", 3, 29.851839331192146, 8.0015157323766104},
  {"NOR2_X1", 0, 40.128231365271944, 10.202542955871534},
  {"NOR2_X1", 1, 28.948480407304306, 7.8382548898558024},
  {"NOR2_X1", 2, 25.394283131075341, 6.3684184192795534},
  {"NOR2_X1", 3, 3.4837256692140679, 0.93142076685960995},
  {"NAND3_X1", 0, 3.8960406017433042, 1.0798398401810707},
  {"NAND3_X1", 1, 7.2232186520264241, 1.9811131529296078},
  {"NAND3_X1", 2, 7.286054537490096, 2.1037409111400014},
  {"NAND3_X1", 3, 59.199404437093811, 15.224367454976854},
  {"NAND3_X1", 4, 7.2748403489962543, 1.9405682688989487},
  {"NAND3_X1", 5, 50.006858635800086, 12.232720591228013},
  {"NAND3_X1", 6, 49.060914093636043, 14.369554966522433},
  {"NAND3_X1", 7, 45.853702453472124, 12.021442511183311},
  {"AOI21_X1", 0, 44.144361913376827, 11.602115948240106},
  {"AOI21_X1", 1, 80.285000407796744, 23.211091309274924},
  {"AOI21_X1", 2, 73.340998567559382, 20.019542346215076},
  {"AOI21_X1", 3, 60.190843109539287, 15.267716854980991},
  {"AOI21_X1", 4, 27.226110572016225, 7.367972409123742},
  {"AOI21_X1", 5, 25.436053237235424, 6.58725287760842},
  {"AOI21_X1", 6, 25.313303756965784, 5.8121231367669397},
  {"AOI21_X1", 7, 3.9173935851412134, 1.0052609056213881},
};

TEST(CharacterizeParallel, McMatchesValuesPinnedBeforeFanOut) {
  const CharacterizedLibrary chars =
      characterize_monte_carlo(mini_library(), test_process(), pinned_mc_options());
  std::size_t checked = 0;
  for (const Pin& pin : kPins) {
    const StateChar& got = chars.cell(mini_library().index_of(pin.cell)).states.at(pin.state);
    const double tol = std::string(pin.cell) == "NAND3_X1" ? 1e-12 : 0.0;
    EXPECT_LE(std::abs(got.mean_na - pin.mean_na), tol * pin.mean_na)
        << pin.cell << "/" << pin.state;
    EXPECT_LE(std::abs(got.sigma_na - pin.sigma_na), tol * pin.sigma_na)
        << pin.cell << "/" << pin.state;
    ++checked;
  }
  std::size_t states = 0;
  for (const cells::Cell& c : mini_library().cells()) states += c.num_states();
  EXPECT_EQ(checked, states);
}

TEST(CharacterizeMetrics, RecordsOncePerCellState) {
  auto& registry = util::metrics::Registry::instance();
  std::size_t states = 0;
  for (const cells::Cell& c : mini_library().cells()) states += c.num_states();

  util::metrics::Snapshot before = registry.snapshot();  // [] reads absent names as 0
  characterize_analytic(mini_library(), test_process());
  McCharOptions mc;
  mc.samples = 50;
  characterize_monte_carlo(mini_library(), test_process(), mc);
  const util::metrics::Snapshot after = registry.snapshot();

  EXPECT_EQ(after.counters.at("charlib.states") - before.counters["charlib.states"], 2 * states);
  EXPECT_EQ(after.histograms.at("charlib.state_ms").count -
                before.histograms["charlib.state_ms"].count,
            2 * states);
  EXPECT_GT(after.histograms.at("charlib.state_ms").sum, before.histograms["charlib.state_ms"].sum);
  // A centered 9-point quadratic fit is well conditioned, but never below 1.
  const std::int64_t condition = registry.gauge("charlib.fit_condition_max").value();
  EXPECT_GE(condition, 1);
  EXPECT_LT(condition, 1e10);
}

}  // namespace
}  // namespace rgleak::charlib

// Memory admission: ladder walks, MC worker tiling, floor rejections.
//
// Uses the default core::Planner coefficients, which at 1024 sites order
// the rungs exact_fft (8 MiB) > exact_direct (256 KiB) > linear (64 KiB) >
// integral_polar (32 KiB) — each budget below picks out one boundary.

#include <gtest/gtest.h>

#include <fstream>

#include "core/planner.h"
#include "util/error.h"

namespace rgleak::core {
namespace {

constexpr std::size_t kSites = 1024;

Planner governor(std::uint64_t budget) {
  Planner gov;
  gov.mem_budget_bytes = budget;
  return gov;
}

// Memory admission: the rung an untimed walk would run, found with rungs
// that only report their name.
Admission admit_estimate(const Planner& planner, std::size_t sites, const std::string& method) {
  const auto name_only = [](const std::string& rung, const util::RunControl*) {
    LeakageEstimate named;
    named.method = rung;
    return named;
  };
  const LeakageEstimate e = planner.walk(method, sites, 0.0, nullptr, name_only);
  Admission adm;
  adm.method = e.method;
  adm.degradation = e.degradation;
  return adm;
}

TEST(AdmitEstimate, UnlimitedBudgetRunsAsRequested) {
  const Admission adm = admit_estimate(governor(0), kSites, "exact_fft");
  EXPECT_EQ(adm.method, "exact_fft");
  EXPECT_TRUE(adm.degradation.empty());
}

TEST(AdmitEstimate, FittingRequestIsNotDegraded) {
  const Admission adm = admit_estimate(governor(16u << 20), kSites, "exact_fft");
  EXPECT_EQ(adm.method, "exact_fft");
  EXPECT_TRUE(adm.degradation.empty());
}

TEST(AdmitEstimate, WalksToFirstFittingRung) {
  // 1 MiB: too small for the FFT rung, plenty for direct.
  const Admission direct = admit_estimate(governor(1u << 20), kSites, "exact_fft");
  EXPECT_EQ(direct.method, "exact_direct");
  EXPECT_EQ(direct.degradation, "mem: exact_fft->exact_direct");

  // 128 KiB: skips fft and direct, lands on linear.
  const Admission linear = admit_estimate(governor(128u << 10), kSites, "exact_fft");
  EXPECT_EQ(linear.method, "linear");
  EXPECT_EQ(linear.degradation, "mem: exact_fft->linear");

  // 48 KiB: only the integral floor fits.
  const Admission polar = admit_estimate(governor(48u << 10), kSites, "exact_fft");
  EXPECT_EQ(polar.method, "integral_polar");
  EXPECT_EQ(polar.degradation, "mem: exact_fft->integral_polar");
}

TEST(AdmitEstimate, NeverUpgradesACheapRequest) {
  // linear fits and so would exact_direct, but the walk starts at the
  // requested rung — a cheap request stays cheap.
  const Admission adm = admit_estimate(governor(16u << 20), kSites, "linear");
  EXPECT_EQ(adm.method, "linear");
  EXPECT_TRUE(adm.degradation.empty());
}

TEST(AdmitEstimate, FloorMissIsTypedRejection) {
  try {
    admit_estimate(governor(16u << 10), kSites, "exact_fft");
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResource);
    EXPECT_NE(std::string(e.what()).find("integral_polar"), std::string::npos) << e.what();
  }
}

TEST(AdmitEstimate, OffLadderMethodIsCheckFitOnly) {
  const Admission fits = admit_estimate(governor(64u << 10), kSites, "integral_rect");
  EXPECT_EQ(fits.method, "integral_rect");
  EXPECT_TRUE(fits.degradation.empty());
  EXPECT_THROW(admit_estimate(governor(16u << 10), kSites, "integral_rect"), ResourceError);
}

TEST(AdmitEstimate, CalibratedModelTightensAdmission) {
  // A calibration observation 4x the default makes the FFT rung too big for
  // a budget the default model would have admitted.
  Planner gov = governor(16u << 20);
  gov.calibrate_bytes("fft", kSites, 64ull << 20);  // bench name maps to exact_fft
  const Admission adm = admit_estimate(gov, kSites, "exact_fft");
  EXPECT_EQ(adm.method, "exact_direct");
}

TEST(AdmitMc, UnlimitedBudgetPreservesThreadsIncludingAuto) {
  EXPECT_EQ(admit_mc(governor(0), kSites, 8).threads, 8u);
  EXPECT_EQ(admit_mc(governor(0), kSites, 0).threads, 0u) << "0 = hw concurrency must survive";
}

TEST(AdmitMc, HalvesWorkersUntilTheyFit) {
  // Per-worker prediction at 1024 sites: 4 MiB. A 9 MiB budget fits 2.
  const Admission adm = admit_mc(governor(9u << 20), kSites, 8);
  EXPECT_EQ(adm.method, "mc");
  EXPECT_EQ(adm.threads, 2u);
  EXPECT_EQ(adm.degradation, "mem: mc threads 8->2");
}

TEST(AdmitMc, FittingRequestIsNotDegraded) {
  const Admission adm = admit_mc(governor(64u << 20), kSites, 4);
  EXPECT_EQ(adm.threads, 4u);
  EXPECT_TRUE(adm.degradation.empty());
}

TEST(AdmitMc, AutoThreadsResolveToOneUnderPressure) {
  // threads=0 enters the ladder as 1 worker; with room for one it is
  // admitted pinned at 1 (auto would over-subscribe the budget).
  const Admission adm = admit_mc(governor(5u << 20), kSites, 0);
  EXPECT_EQ(adm.threads, 1u);
}

TEST(AdmitMc, SingleWorkerMissIsTypedRejection) {
  try {
    admit_mc(governor(1u << 20), kSites, 4);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResource);
    EXPECT_NE(std::string(e.what()).find("single worker"), std::string::npos) << e.what();
  }
}

TEST(PlannerMemory, StructuralFormulasAreMonotonicInProblemSize) {
  EXPECT_LT(Planner::exact_direct_bytes(100, 10, 10), Planner::exact_direct_bytes(1000, 32, 32));
  EXPECT_LT(Planner::exact_fft_bytes(8, 8, 2), Planner::exact_fft_bytes(32, 32, 2));
  EXPECT_LT(Planner::mc_worker_bytes(16, 16, 8, 8, 100),
            Planner::mc_worker_bytes(64, 64, 32, 32, 1000));
}

TEST(PlannerCalibration, OneBenchRecordCalibratesTimeAndMemory) {
  // The shape bench_scaling --exact-json writes: every record carries both a
  // wall time and a charged peak, and the serial row is a baseline.
  const std::string path = std::string(::testing::TempDir()) + "rgleak_planner_bench.json";
  {
    std::ofstream os(path);
    os << "{\n  \"bench\": \"exact_estimator\",\n  \"records\": [\n"
       << "    {\"sites\": 1024, \"method\": \"direct_serial\", \"wall_ms\": 9000.0, "
          "\"peak_rss_kb\": 4788, \"budget_peak_bytes\": 1},\n"
       << "    {\"sites\": 1024, \"method\": \"fft\", \"wall_ms\": 1000.0, "
          "\"peak_rss_kb\": 4788, \"budget_peak_bytes\": 67108864}\n  ]\n}\n";
  }
  const Planner calibrated = Planner::from_bench_json(path);
  const Planner defaults;
  EXPECT_NEAR(calibrated.predict_ms("exact_fft", kSites), 1000.0, 1e-6);
  EXPECT_EQ(calibrated.predict_bytes("exact_fft", kSites), 64ull << 20);
  EXPECT_EQ(calibrated.predict_ms("exact_direct", kSites),
            defaults.predict_ms("exact_direct", kSites));
  EXPECT_EQ(calibrated.predict_bytes("exact_direct", kSites),
            defaults.predict_bytes("exact_direct", kSites));

  {
    std::ofstream os(path);
    os << "{\"records\": [{\"method\": \"fft\", \"wall_ms\": 1.0}]}\n";
  }
  EXPECT_THROW(Planner::from_bench_json(path), ParseError) << "a record without sites";
}

TEST(PlannerMemory, UnknownMethodPredictsUnaffordable) {
  const Planner m;
  EXPECT_EQ(m.predict_bytes("no_such_method", kSites),
            std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
}  // namespace rgleak::core

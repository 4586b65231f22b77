#include "process/variation.h"

#include <cmath>

#include "util/require.h"

namespace rgleak::process {

double LengthVariation::sigma_total_nm() const {
  return std::sqrt(sigma_d2d_nm * sigma_d2d_nm + sigma_wid_nm * sigma_wid_nm);
}

double LengthVariation::d2d_variance_fraction() const {
  const double total = sigma_d2d_nm * sigma_d2d_nm + sigma_wid_nm * sigma_wid_nm;
  RGLEAK_REQUIRE(total > 0.0, "process has zero length variance");
  return sigma_d2d_nm * sigma_d2d_nm / total;
}

ProcessVariation::ProcessVariation(LengthVariation length, VtVariation vt,
                                   std::shared_ptr<const SpatialCorrelation> wid_correlation,
                                   CorrelationAnisotropy anisotropy)
    : length_(length), vt_(vt), wid_corr_(std::move(wid_correlation)), anisotropy_(anisotropy) {
  RGLEAK_REQUIRE(length_.mean_nm > 0.0, "nominal length must be positive");
  RGLEAK_REQUIRE(length_.sigma_d2d_nm >= 0.0 && length_.sigma_wid_nm >= 0.0,
                 "length sigmas must be non-negative");
  RGLEAK_REQUIRE(vt_.sigma_v >= 0.0, "Vt sigma must be non-negative");
  RGLEAK_REQUIRE(wid_corr_ != nullptr, "WID correlation model is required");
  RGLEAK_REQUIRE(anisotropy_.scale_x > 0.0 && anisotropy_.scale_y > 0.0,
                 "anisotropy scales must be positive");
}

double ProcessVariation::total_length_correlation_xy(double dx_nm, double dy_nm) const {
  const double d_eff = std::hypot(dx_nm / anisotropy_.scale_x, dy_nm / anisotropy_.scale_y);
  if (d_eff == 0.0) return 1.0;
  const double var_dd = length_.sigma_d2d_nm * length_.sigma_d2d_nm;
  const double var_wd = length_.sigma_wid_nm * length_.sigma_wid_nm;
  const double total = var_dd + var_wd;
  RGLEAK_REQUIRE(total > 0.0, "process has zero length variance");
  return (var_dd + var_wd * (*wid_corr_)(d_eff)) / total;
}

ProcessVariation default_process() {
  return ProcessVariation(LengthVariation{}, VtVariation{},
                          std::make_shared<ExponentialCorrelation>(5.0e5));  // 0.5 mm
}

}  // namespace rgleak::process

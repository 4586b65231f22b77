#pragma once
// Multi-block floorplan estimation: the paper's early-mode story extended to
// block-level planning.
//
// A chip is rarely one homogeneous sea of gates — it is a floorplan of IP
// blocks, each with its own (expected) cell mix. Each block gets its own
// Random Gate; within-block variance follows eq. (17) on the block's
// rectangle, and covariance *between* blocks uses the cross-mixture map
// F_AB(rho_L) with the exact count of site pairs at each (dx, dy) offset
// between two rectangles (indicator cross-correlation, closed form). The
// chip total is assembled from the block covariance matrix.

#include <string>
#include <vector>

#include "core/estimate.h"
#include "core/random_gate.h"
#include "math/linalg.h"
#include "placement/placement.h"

namespace rgleak::core {

/// One floorplan block: a rectangle of sites on the chip grid plus the
/// block's expected cell-usage distribution.
struct BlockSpec {
  std::string name;
  netlist::UsageHistogram usage;
  std::size_t col0 = 0, row0 = 0;  ///< origin site of the rectangle
  std::size_t cols = 0, rows = 0;  ///< extent in sites

  std::size_t num_sites() const { return cols * rows; }
};

class MultiBlockEstimator {
 public:
  /// Blocks must lie inside the floorplan and must not overlap. Sites not
  /// covered by any block are whitespace (no leakage).
  MultiBlockEstimator(const charlib::CharacterizedLibrary& chars,
                      placement::Floorplan floorplan, std::vector<BlockSpec> blocks,
                      double signal_probability = 0.5,
                      CorrelationMode mode = CorrelationMode::kAnalytic);

  std::size_t num_blocks() const { return blocks_.size(); }
  const BlockSpec& block(std::size_t b) const;

  /// Leakage statistics of one block in isolation (eq. (17) on its rectangle).
  LeakageEstimate block_estimate(std::size_t b) const;

  /// Covariance (nA^2) between two blocks' totals (b1 == b2 gives the
  /// block's variance).
  double block_covariance(std::size_t b1, std::size_t b2) const;

  /// Correlation between two blocks' totals.
  double block_correlation(std::size_t b1, std::size_t b2) const;

  /// Block-total covariance matrix.
  math::Matrix covariance_matrix() const;

  /// Chip total: sum of block means, variance from the full block covariance
  /// matrix.
  LeakageEstimate chip_estimate() const;

  /// Moves block `b` to a new origin (same extent). Validates bounds and
  /// non-overlap against the other blocks. Mixture models are position-
  /// independent, so moves are cheap — the basis of the variance-aware
  /// floorplan optimizer.
  void set_block_position(std::size_t b, std::size_t col0, std::size_t row0);

  /// Swaps the origins of two blocks with identical extents (the occupied
  /// area is unchanged, so validity is preserved).
  void swap_block_positions(std::size_t b1, std::size_t b2);

 private:
  const charlib::CharacterizedLibrary* chars_;
  placement::Floorplan fp_;
  std::vector<BlockSpec> blocks_;
  std::vector<RandomGate> rg_;  // one per block
  // Cross-block covariance tables for b1 < b2, strictly upper-triangular,
  // row-major. A block's own pairs use its RandomGate.
  std::vector<charlib::MixtureCovariance> cross_;

  const charlib::MixtureCovariance& cross(std::size_t b1, std::size_t b2) const;
  double rect_pair_sum(std::size_t b1, std::size_t b2) const;
};

}  // namespace rgleak::core

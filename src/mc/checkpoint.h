#pragma once
// Checkpoint/resume state for the full-chip Monte-Carlo engine.
//
// A checkpoint captures everything a fresh process needs to continue a run
// bit-identically: per-worker RNG engine state, the field sampler's
// spare-field cache, and every completed sample (the percentile estimates
// need the raw values, not just moments). All doubles are stored as exact
// 64-bit hex patterns so the text round-trip is lossless. An identity header
// (seed, threads, trials, ...) guards against resuming with a different run
// setup.
//
// Format "rgmcckpt-v1" is documented in docs/FORMATS.md. Files are written
// atomically (temp file + rename), so an interrupted save never leaves a
// truncated checkpoint behind.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "math/rng.h"

namespace rgleak::mc {

/// One worker's stochastic state at a checkpoint boundary.
struct McWorkerState {
  math::Rng::State rng{};
  /// Spare field pending in the worker's GridFieldSampler (empty when none).
  std::vector<double> cached_field;
  /// Completed trial samples of this worker's slice, in trial order.
  std::vector<double> samples;
};

struct McCheckpoint {
  // Identity guard: resume refuses a checkpoint whose run setup differs.
  std::uint64_t seed = 0;
  std::size_t threads = 0;
  std::size_t trials = 0;
  bool resample_states_per_trial = false;
  std::size_t table_points = 0;
  std::size_t gate_count = 0;

  std::vector<McWorkerState> workers;
};

/// Writes the checkpoint atomically (temp file + rename). Throws IoError.
void save_mc_checkpoint(const std::string& path, const McCheckpoint& ckpt);

/// Serializer for periodic checkpointing that reuses its internal text
/// buffer across saves and reads worker state in place. The engine's old
/// cadence path deep-copied every worker's RNG state, cached field, and full
/// sample slice into a McCheckpoint before formatting it through ostream
/// locale machinery — O(total samples) of copies plus slow formatting every
/// cadence. begin()/add_worker()/save() write the same rgmcckpt-v1 text
/// straight from the live vectors with std::to_chars; after the first save
/// the only allocation left is inside atomic_write_file's temp-path string.
class McCheckpointWriter {
 public:
  /// Starts a new checkpoint image; `workers` is the number of add_worker()
  /// calls that must follow before save().
  void begin(std::uint64_t seed, std::size_t threads, std::size_t trials,
             bool resample_states_per_trial, std::size_t table_points, std::size_t gate_count,
             std::size_t workers);

  /// Appends one worker record. `cached_field` may be null (no spare field
  /// pending). The vectors are read in place, not copied.
  void add_worker(const math::Rng::State& rng, const std::vector<double>* cached_field,
                  const std::vector<double>& samples);

  /// Finalizes the image (appends the end marker; requires exactly the
  /// declared number of worker records) and returns the serialized bytes.
  /// Idempotent; the reference stays valid until the next begin(). The MC
  /// engine hands this image to its background checkpoint flusher instead of
  /// blocking the trial loop on the filesystem.
  const std::string& finish();

  /// Atomically writes the finalized image (temp file + rename). Throws
  /// IoError.
  void save(const std::string& path);

 private:
  std::string buf_;
  std::size_t workers_declared_ = 0;
  std::size_t workers_added_ = 0;
  bool finished_ = false;
};

/// Loads and validates a checkpoint. Throws IoError on an unreadable file and
/// ParseError on a malformed or wrong-version one, including a missing or
/// mismatched crc32 trailer and any data after the end marker.
McCheckpoint load_mc_checkpoint(const std::string& path);

}  // namespace rgleak::mc

// Malformed-checkpoint corpus: every corrupted rgmcckpt-v1 file must be
// refused with a typed, located ParseError naming the file — never a crash, a
// garbage resume, or an untyped exception — and a checkpoint that parses but
// describes a different run must be refused with ConfigError on --resume.
// RGLEAK_MC_CORPUS_DIR is injected by CMake and points at tests/mc/corpus.

#include <gtest/gtest.h>

#include <string>

#include "../test_util.h"
#include "mc/checkpoint.h"
#include "mc/full_chip_mc.h"
#include "netlist/random_circuit.h"
#include "placement/placement.h"
#include "util/error.h"

namespace rgleak::mc {
namespace {

using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_library;

std::string corpus(const char* file) {
  return std::string(RGLEAK_MC_CORPUS_DIR) + "/" + file;
}

struct CorpusCase {
  const char* file;
  const char* needle;  // must appear in what()
  std::size_t line = 0;  // trailer errors name the file's last line
};

const CorpusCase kMalformed[] = {
    {"truncated.ckpt", "unexpected end of checkpoint"},
    {"bad_magic.ckpt", "not a checkpoint"},
    {"bad_hex.ckpt", "expected a hex word"},
    {"dup_worker.ckpt", "worker records out of order"},
    // Integrity-trailer corpus: a valid file whose trailer was bit-flipped,
    // and a file torn above a trailer that no longer matches its payload.
    {"crc_mismatch.ckpt", "checksum mismatch", 14},
    {"crc_truncated.ckpt", "checksum mismatch", 14},
    // The trailer is mandatory: a file without it, or whose trailer keyword
    // was damaged (here alongside a tampered sample), never loads unverified.
    {"no_trailer.ckpt", "missing checkpoint checksum trailer", 13},
    {"bad_trailer_prefix.ckpt", "missing checkpoint checksum trailer", 14},
    // The v1 layout's two Gaussian-spare tokens are reserved as "0 0".
    {"nonzero_spare.ckpt", "reserved rng flag must be 0"},
    {"data_after_end.ckpt", "unexpected data after 'end'"},
};

TEST(CheckpointCorpus, EveryMalformedFileFailsWithLocatedParseError) {
  for (const CorpusCase& c : kMalformed) {
    const std::string path = corpus(c.file);
    try {
      (void)load_mc_checkpoint(path);
      ADD_FAILURE() << c.file << ": expected ParseError, load succeeded";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.source(), path) << c.file;
      EXPECT_EQ(e.line(), c.line) << c.file;
      const std::string what = e.what();
      EXPECT_NE(what.find(c.needle), std::string::npos) << c.file << ": " << what;
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.file << ": wrong exception type: " << e.what();
    }
  }
}

TEST(CheckpointCorpus, IdentityMismatchIsRefusedOnResume) {
  // The file itself is well-formed; it just describes a 9999-gate run. The
  // engine must refuse to resume a 16-gate run from it, with ConfigError.
  netlist::UsageHistogram usage;
  usage.alphas.assign(mini_library().size(), 0.0);
  usage.alphas[0] = 0.6;
  usage.alphas[1] = 0.4;
  math::Rng gen(41);
  const netlist::Netlist nl = generate_random_circuit(mini_library(), usage, 16, gen);
  placement::Floorplan fp;
  fp.rows = 4;
  fp.cols = 4;
  const placement::Placement pl(&nl, fp);

  FullChipMcOptions opts;
  opts.trials = 24;
  opts.seed = 99;
  opts.threads = 1;
  opts.resample_states_per_trial = true;
  opts.resume_path = corpus("identity_mismatch.ckpt");
  FullChipMonteCarlo engine(pl, mini_chars_analytic(), opts);
  try {
    (void)engine.run();
    ADD_FAILURE() << "expected ConfigError, resume succeeded";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("gate count"), std::string::npos) << e.what();
  }
}

TEST(CheckpointCorpus, IdentityMismatchFileItselfParses) {
  // Guards the corpus: if the "valid but wrong identity" file rots into a
  // parse failure, the mismatch test above would pass for the wrong reason.
  const McCheckpoint ckpt = load_mc_checkpoint(corpus("identity_mismatch.ckpt"));
  EXPECT_EQ(ckpt.gate_count, 9999u);
  EXPECT_EQ(ckpt.workers.size(), 1u);
}

}  // namespace
}  // namespace rgleak::mc

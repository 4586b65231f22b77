#include "mc/checkpoint.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string_view>

#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/require.h"

namespace rgleak::mc {

namespace {

constexpr const char* kMagic = "rgmcckpt-v1";

// Appenders matching the formatting the v1 format was originally written
// with via ostream: decimal for counts, lowercase hex without leading zeros
// for bit patterns (std::to_chars produces exactly that).
void append_u64(std::string& buf, std::uint64_t v, int base = 10) {
  char tmp[24];
  const auto res = std::to_chars(tmp, tmp + sizeof(tmp), v, base);
  buf.append(tmp, res.ptr);
}

void append_bits(std::string& buf, double v) {
  append_u64(buf, std::bit_cast<std::uint64_t>(v), 16);
}


[[noreturn]] void fail(const std::string& path, const std::string& message,
                       const std::string& token = "", std::size_t line = 0) {
  throw ParseError(path, line, 0, message, token);
}

std::string next_token(std::istream& is, const std::string& path, const char* what) {
  std::string tok;
  if (!(is >> tok)) fail(path, std::string("unexpected end of checkpoint, wanted ") + what);
  return tok;
}

void expect(std::istream& is, const std::string& path, const char* keyword) {
  const std::string tok = next_token(is, path, keyword);
  if (tok != keyword)
    fail(path, std::string("expected keyword '") + keyword + "'", tok);
}

std::uint64_t read_u64(std::istream& is, const std::string& path, const char* what) {
  const std::string tok = next_token(is, path, what);
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(tok, &used, 10);
    if (used != tok.size()) throw std::invalid_argument(tok);
    return v;
  } catch (const std::exception&) {
    fail(path, std::string("expected an unsigned integer for ") + what, tok);
  }
}

std::uint64_t read_hex64(std::istream& is, const std::string& path, const char* what) {
  const std::string tok = next_token(is, path, what);
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(tok, &used, 16);
    if (used != tok.size()) throw std::invalid_argument(tok);
    return v;
  } catch (const std::exception&) {
    fail(path, std::string("expected a hex word for ") + what, tok);
  }
}

double read_bits(std::istream& is, const std::string& path, const char* what) {
  return std::bit_cast<double>(read_hex64(is, path, what));
}

}  // namespace

void McCheckpointWriter::begin(std::uint64_t seed, std::size_t threads, std::size_t trials,
                               bool resample_states_per_trial, std::size_t table_points,
                               std::size_t gate_count, std::size_t workers) {
  buf_.clear();  // keeps capacity: subsequent checkpoints reuse the buffer
  workers_declared_ = workers;
  workers_added_ = 0;
  finished_ = false;
  buf_ += kMagic;
  buf_ += "\nseed ";
  append_u64(buf_, seed);
  buf_ += "\nthreads ";
  append_u64(buf_, threads);
  buf_ += "\ntrials ";
  append_u64(buf_, trials);
  buf_ += "\nresample ";
  buf_ += resample_states_per_trial ? '1' : '0';
  buf_ += "\ntable_points ";
  append_u64(buf_, table_points);
  buf_ += "\ngates ";
  append_u64(buf_, gate_count);
  buf_ += "\nworkers ";
  append_u64(buf_, workers);
  buf_ += '\n';
}

void McCheckpointWriter::add_worker(const math::Rng::State& rng,
                                    const std::vector<double>* cached_field,
                                    const std::vector<double>& samples) {
  RGLEAK_REQUIRE(workers_added_ < workers_declared_,
                 "checkpoint writer: more worker records than declared");
  buf_ += "worker ";
  append_u64(buf_, workers_added_++);
  buf_ += "\nrng";
  for (std::uint64_t word : rng) {
    buf_ += ' ';
    append_u64(buf_, word, 16);
  }
  buf_ += " 0 0";  // reserved: the v1 layout's two Gaussian-spare tokens
  buf_ += "\ncached ";
  append_u64(buf_, cached_field != nullptr ? cached_field->size() : 0);
  if (cached_field != nullptr) {
    for (double v : *cached_field) {
      buf_ += ' ';
      append_bits(buf_, v);
    }
  }
  buf_ += "\nsamples ";
  append_u64(buf_, samples.size());
  for (double v : samples) {
    buf_ += ' ';
    append_bits(buf_, v);
  }
  buf_ += '\n';
}

const std::string& McCheckpointWriter::finish() {
  RGLEAK_REQUIRE(workers_added_ == workers_declared_,
                 "checkpoint writer: missing worker records");
  if (!finished_) {
    buf_ += "end\n";
    // Integrity trailer: CRC32 of every byte above it. The loader verifies
    // and strips this line, so a checkpoint torn mid-write or bit-flipped at
    // rest is rejected instead of silently resuming a corrupted MC run.
    const std::uint32_t crc = util::crc32(buf_);
    buf_ += "crc32 ";
    buf_ += util::crc32_hex(crc);
    buf_ += '\n';
    finished_ = true;
  }
  return buf_;
}

void McCheckpointWriter::save(const std::string& path) {
  const std::string& image = finish();
  util::atomic_write_file(path, [&](std::ostream& os) {
    os.write(image.data(), static_cast<std::streamsize>(image.size()));
  });
}

void save_mc_checkpoint(const std::string& path, const McCheckpoint& ckpt) {
  McCheckpointWriter writer;
  writer.begin(ckpt.seed, ckpt.threads, ckpt.trials, ckpt.resample_states_per_trial,
               ckpt.table_points, ckpt.gate_count, ckpt.workers.size());
  for (const McWorkerState& ws : ckpt.workers)
    writer.add_worker(ws.rng, ws.cached_field.empty() ? nullptr : &ws.cached_field, ws.samples);
  writer.save(path);
}

McCheckpoint load_mc_checkpoint(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw IoError("cannot open for reading: " + path);
  std::ostringstream whole;
  whole << file.rdbuf();
  const std::string text = whole.str();

  // Verify and strip the integrity trailer: "crc32 <8 hex>" as the last
  // line, covering every byte before it. A file without it, or truncated
  // above it, is refused (the remaining payload no longer matches).
  std::string_view tail(text);
  if (!tail.empty() && tail.back() == '\n') tail.remove_suffix(1);
  const auto nl = tail.rfind('\n');
  const std::string_view last = nl == std::string_view::npos ? tail : tail.substr(nl + 1);
  const auto last_line = static_cast<std::size_t>(std::count(tail.begin(), tail.end(), '\n')) + 1;
  if (last.substr(0, 6) != "crc32 ")
    fail(path, "missing checkpoint checksum trailer (last line must be 'crc32 <hex>')",
         std::string(last.substr(0, 16)), last_line);
  std::uint32_t want = 0;
  if (!util::parse_crc32_hex(last.substr(6), want))
    fail(path, "malformed checkpoint checksum trailer", std::string(last), last_line);
  const std::string payload = nl == std::string_view::npos ? std::string() : text.substr(0, nl + 1);
  if (util::crc32(payload) != want)
    fail(path, "checkpoint checksum mismatch (corrupt or truncated file)", "", last_line);
  std::istringstream is(payload);

  const std::string magic = next_token(is, path, "magic header");
  if (magic != kMagic)
    fail(path, std::string("not a checkpoint (wanted header '") + kMagic + "')", magic);

  McCheckpoint ckpt;
  expect(is, path, "seed");
  ckpt.seed = read_u64(is, path, "seed");
  expect(is, path, "threads");
  ckpt.threads = static_cast<std::size_t>(read_u64(is, path, "threads"));
  expect(is, path, "trials");
  ckpt.trials = static_cast<std::size_t>(read_u64(is, path, "trials"));
  expect(is, path, "resample");
  ckpt.resample_states_per_trial = read_u64(is, path, "resample") != 0;
  expect(is, path, "table_points");
  ckpt.table_points = static_cast<std::size_t>(read_u64(is, path, "table_points"));
  expect(is, path, "gates");
  ckpt.gate_count = static_cast<std::size_t>(read_u64(is, path, "gates"));
  expect(is, path, "workers");
  const std::size_t nworkers = static_cast<std::size_t>(read_u64(is, path, "worker count"));
  if (nworkers == 0 || nworkers != ckpt.threads)
    fail(path, "worker count must equal the checkpointed thread count");

  ckpt.workers.resize(nworkers);
  for (std::size_t w = 0; w < nworkers; ++w) {
    McWorkerState& ws = ckpt.workers[w];
    expect(is, path, "worker");
    if (read_u64(is, path, "worker index") != w)
      fail(path, "worker records out of order");
    expect(is, path, "rng");
    for (auto& word : ws.rng) word = read_hex64(is, path, "rng state word");
    for (const char* what : {"reserved rng token", "reserved rng flag"}) {
      const std::string tok = next_token(is, path, what);
      if (tok != "0") fail(path, std::string(what) + " must be 0", tok);
    }
    expect(is, path, "cached");
    const std::size_t ncached = static_cast<std::size_t>(read_u64(is, path, "cached size"));
    ws.cached_field.resize(ncached);
    for (auto& v : ws.cached_field) v = read_bits(is, path, "cached field value");
    expect(is, path, "samples");
    const std::size_t nsamples = static_cast<std::size_t>(read_u64(is, path, "sample count"));
    ws.samples.resize(nsamples);
    for (auto& v : ws.samples) v = read_bits(is, path, "sample value");
  }
  expect(is, path, "end");
  std::string extra;
  if (is >> extra) fail(path, "unexpected data after 'end'", extra);
  return ckpt;
}

}  // namespace rgleak::mc

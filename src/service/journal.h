#pragma once
// Crash-only batch journal.
//
// One JSONL record per *terminal* job outcome (succeeded / failed),
// preceded by a magic header line. There is no "in progress" state and no
// recovery procedure: a job that was mid-flight when the process was
// SIGKILL'd simply has no record and is re-run on resume (jobs are
// deterministic for fixed inputs, so at-least-once execution is safe), while
// a job with a record is never re-run and never duplicated.
//
// Every append rewrites the file through util::atomic_write_file (temp +
// rename), so a reader — including a resume after SIGKILL at any instant —
// sees a complete, well-formed journal: either with or without the latest
// record, never a torn line. That is what makes the journal crash-only: the
// recovery path IS the normal open path.
//
// Append failures (disk full, injected io failpoints) do not kill the batch:
// the record stays in memory, the append is retried on the next record, and
// the failure count is surfaced in the batch summary. The cost of a lost
// append is bounded and safe — at worst a completed job re-runs after a
// crash.

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/job.h"

namespace rgleak::service {

class Journal {
 public:
  /// In-memory journal (no persistence); what you get for an empty path.
  Journal() = default;
  ~Journal();

  /// Movable so open() can return by value (a fresh mutex; the source must
  /// not be in concurrent use, which open-time construction guarantees).
  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&&) = delete;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens `path`, loading existing records when the file exists (a missing
  /// file is a fresh journal, not an error). Throws IoError on an unreadable
  /// existing file and located ParseError on a malformed one.
  ///
  /// Single-writer: open() takes an exclusive advisory flock on a `.lock`
  /// sidecar (the journal file itself changes inode on every atomic rewrite,
  /// so the lock must live on a stable path) and holds it for the Journal's
  /// lifetime. A second batch targeting the same journal fails fast with an
  /// IoError naming the lock file, instead of the two batches silently
  /// interleaving rewrites and losing each other's records.
  static Journal open(const std::string& path);

  /// True when `id` already has a terminal record (job must not re-run).
  bool has(const std::string& id) const;

  /// Records loaded at open time plus those appended since, by job id.
  std::map<std::string, JobRecord> records() const;
  std::size_t size() const;

  /// Appends a terminal record and persists the journal atomically.
  /// Thread-safe. A persistence failure is absorbed (see header) and counted;
  /// the in-memory record is kept either way.
  void append(const JobRecord& rec);

  /// Persistence failures absorbed so far.
  std::size_t write_failures() const;

  /// Forces a rewrite of the backing file (used to flush after absorbed
  /// failures). Throws on failure when `path` is set.
  void flush();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  mutable std::mutex mutex_;
  std::map<std::string, JobRecord> records_;
  std::vector<std::string> order_;  // append order, for stable files
  std::size_t write_failures_ = 0;
  int lock_fd_ = -1;  // exclusive flock on path_ + ".lock"; -1 = none

  void persist_locked();
};

}  // namespace rgleak::service

#pragma once
// Process-wide metrics: named counters, gauges, and fixed-bucket histograms.
//
// Design constraints, in order:
//
//  * hot-path cost — recording is lock-free: a Counter::add is ONE relaxed
//    fetch_add, a Histogram::observe is a handful of relaxed atomic ops on a
//    fixed array. No mutex, no allocation, no branching on configuration.
//    Call sites cache the instrument reference once (registration) and then
//    hit only the atomics, so metrics can stay armed permanently — the MC
//    trial loop budget is ≤2% overhead (enforced by bench_full_chip_mc).
//  * zero heap allocation after registration — instruments live in node-based
//    containers owned by the registry; their addresses are stable for the
//    process lifetime, so a reference captured at startup never dangles.
//  * fork friendliness — all state is plain atomics; a sandboxed job child
//    inherits the parent's registry by fork, records into its own copy, and
//    ships the DELTA back over the result pipe (snapshot/encode_delta/
//    merge_delta), so parent aggregates include child work exactly once.
//
// Snapshots serialize through util::format_double, so output is strict JSON
// regardless of LC_NUMERIC.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace rgleak::util::metrics {

/// Monotonically increasing event count. One relaxed fetch_add to record.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time signed level (queue depth, active workers). set/add are
/// single relaxed atomic ops; excluded from deltas (a child's point-in-time
/// level is meaningless to fold into the parent's).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  /// Raises the level to `v` when `v` is higher (a high-water mark).
  void raise_to(std::int64_t v) {
    std::int64_t seen = value_.load(std::memory_order_relaxed);
    while (v > seen && !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed log2-bucket histogram for latency-style values (unit: whatever the
/// caller observes, by convention milliseconds for *_ms names). Bucket i
/// counts observations in [2^(i-11), 2^(i-10)); bucket 0 absorbs everything
/// below 2^-10 (≈1µs for ms values) and non-positive/non-finite input, the
/// last bucket absorbs everything above. observe() is wait-free except for
/// the max update, a bounded CAS loop.
class Histogram {
 public:
  static constexpr int kBuckets = 40;  // [2^-10, 2^30) ms ≈ 1µs .. 12 days

  void observe(double v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    double seen = max_.load(std::memory_order_relaxed);
    while (v > seen && !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int i) const { return buckets_[i].load(std::memory_order_relaxed); }

  static int bucket_index(double v);

 private:
  friend class Registry;
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Registry snapshot (plain values) — the child captures one at job start and
/// encodes the difference at job end, so a forked registry ships only the
/// work done on the child side.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  struct Hist {
    std::uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    std::uint64_t buckets[Histogram::kBuckets]{};
  };
  std::map<std::string, Hist> histograms;
};

/// Process-wide named-instrument registry. Registration (counter/gauge/
/// histogram lookup-or-create) takes a mutex and may allocate; everything
/// returned is a stable reference — register once, record forever.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Full registry state as one strict-JSON object (see FORMATS.md,
  /// metrics-json). Locale-independent.
  std::string snapshot_json() const;

  /// Plain-value capture of counters and histograms (gauges excluded).
  Snapshot snapshot() const;

  /// Compact single-line encoding of (current state − base), suitable for
  /// embedding as one string field in a flat JSONL record. Empty string when
  /// nothing changed. Doubles travel as hex bit patterns so the merge is
  /// exact. Grammar: records joined by ';', each
  ///   c|<name>|<count>
  ///   h|<name>|<count>|<sum-bits-hex>|<max-bits-hex>|<i>:<n>,<i>:<n>,...
  std::string encode_delta(const Snapshot& base) const;

  /// Fold an encode_delta() payload into this registry (registering any
  /// instruments not yet present). Unknown record kinds are ignored so old
  /// parents tolerate newer children. Malformed records are skipped.
  void merge_delta(std::string_view text);

  /// Zero every registered instrument (tests and bench baselines). Instruments
  /// stay registered; cached references remain valid.
  void reset();

 private:
  Registry() = default;

  mutable std::mutex mu_;  // guards the maps only, never the hot path
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Scoped wall-clock timer: observes elapsed milliseconds into a histogram at
/// destruction. For phase/rung timing where the instrument reference is
/// cached by the caller.
class ScopedTimerMs {
 public:
  explicit ScopedTimerMs(Histogram& h) : h_(h), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimerMs() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    h_.observe(static_cast<double>(ns) * 1e-6);
  }
  ScopedTimerMs(const ScopedTimerMs&) = delete;
  ScopedTimerMs& operator=(const ScopedTimerMs&) = delete;

 private:
  Histogram& h_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace rgleak::util::metrics

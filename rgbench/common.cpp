#include "common.h"

#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace rgbench {

using rgleak::process::ProcessVariation;

std::size_t bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ProcessVariation bench_process() {
  rgleak::process::LengthVariation len;
  len.mean_nm = 40.0;
  len.sigma_d2d_nm = std::sqrt(2.5 * 2.5 * 0.5);
  len.sigma_wid_nm = std::sqrt(2.5 * 2.5 * 0.5);
  rgleak::process::VtVariation vt;
  vt.sigma_v = 0.02;
  return ProcessVariation(len, vt,
                          std::make_shared<rgleak::process::ExponentialCorrelation>(1.0e5));
}

// ---------------------------------------------------------------- tracing

namespace {
thread_local std::vector<int> tl_open_spans;
}  // namespace

int Tracer::open(const char* name) {
  Record r;
  r.name = name;
  r.parent = tl_open_spans.empty() ? -1 : tl_open_spans.back();
  std::lock_guard<std::mutex> lock(mu_);
  r.start_s = now_s();
  records_.push_back(std::move(r));
  const int index = static_cast<int>(records_.size()) - 1;
  tl_open_spans.push_back(index);
  return index;
}

void Tracer::close(int index) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<std::size_t>(index)].end_s = t;
  if (!tl_open_spans.empty() && tl_open_spans.back() == index) tl_open_spans.pop_back();
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Record& r : records_)
    if (r.name == name && r.end_s >= r.start_s) out.push_back((r.end_s - r.start_s) * 1e3);
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  const std::vector<double> d = durations_ms(name);
  return std::accumulate(d.begin(), d.end(), 0.0);
}

std::size_t Tracer::count(const std::string& name) const { return durations_ms(name).size(); }

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

Span::Span(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (tracer_.on()) index_ = tracer_.open(name);
}

Span::~Span() {
  if (index_ >= 0) tracer_.close(index_);
}

// -------------------------------------------------------------- statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ----------------------------------------------------------------- report

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  ++checks_;
  std::fprintf(stderr, "rgbench: check %-28s %s  %s\n", name.c_str(), ok ? "ok  " : "FAIL",
               detail.c_str());
  if (!ok) failed_checks_.push_back(name);
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, "\"" + json_escape(value) + "\"");
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, json_number(value));
}

bool Report::correct() const { return failed_checks_.empty() && checks_ > 0 && failed_ == 0; }

void Report::print(bool trace, const std::vector<std::pair<std::string, std::string>>& e2e,
                   const std::vector<std::pair<std::string, std::string>>& layer) const {
  std::string info = "{\"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i)
    info += (i ? ", \"" : "\"") + json_escape(info_[i].first) + "\": " + info_[i].second;
  info += ", \"checks\": " + std::to_string(checks_) + ", \"failed_checks\": [";
  for (std::size_t i = 0; i < failed_checks_.size(); ++i)
    info += (i ? ", \"" : "\"") + json_escape(failed_checks_[i]) + "\"";
  info += "]}}";
  std::printf("%s\n", info.c_str());

  const auto& wanted = trace ? layer : e2e;
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < wanted.size(); ++i) {
    const auto it = metrics_.find(wanted[i].first);
    const double v = it == metrics_.end() ? 0.0 : it->second.value;
    line += (i ? ", \"" : "\"") + wanted[i].first + "\": {\"value\": " + json_number(v) +
            ", \"unit\": \"" + wanted[i].second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

HistDelta hist_delta(const rgleak::util::metrics::Snapshot& before,
                     const rgleak::util::metrics::Snapshot& after, const std::string& name) {
  HistDelta d;
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return d;
  const auto b = before.histograms.find(name);
  d.count = a->second.count - (b == before.histograms.end() ? 0 : b->second.count);
  d.sum = a->second.sum - (b == before.histograms.end() ? 0.0 : b->second.sum);
  return d;
}

double rel_diff(double a, double b) {
  return b == 0.0 ? std::abs(a - b) : std::abs(a - b) / std::abs(b);
}

double perturbation(const Args& args, const std::string& name, double delta) {
  return args.perturb == name ? 1.0 + delta : 1.0;
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string filesystem_type(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x794C7630UL: return "overlay";
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x2FC12FC1UL: return "zfs";
    case 0xF2F52010UL: return "f2fs";
    case 0x65735546UL: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

void fingerprint(Report& report, const Args& args) {
  report.info("cpus", static_cast<double>(std::thread::hardware_concurrency()));
  report.info("threads", static_cast<double>(bench_threads()));
  report.info("compiler", RGBENCH_COMPILER);
  report.info("build_type", RGBENCH_BUILD_TYPE);
  report.info("seed", std::to_string(args.seed));
  report.info("workdir_fs", filesystem_type(args.workdir));
}

}  // namespace rgbench

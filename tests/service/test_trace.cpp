// util::trace spans end-to-end: record shape, crc trailer (journal
// convention), thread-local nesting, exception outcomes, and — the part that
// justifies the fd/atomics design — spans emitted by forked sandbox children
// landing in the same file, correctly parented to the supervisor-side
// attempt span. Lives in service_tests because the fork coverage drives a
// real ExecIsolation::kProcess batch.

#include "util/trace.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/batch_runner.h"
#include "service/executor.h"
#include "service/journal.h"
#include "service/jsonio.h"
#include "util/crc32.h"

namespace rgleak::service {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

// Verifies the crc field exactly as journal readers do, then parses.
JsonObject parse_span(const std::string& line) {
  return parse_json_object(util::strip_crc_field(line, "trace", 1), "trace", 1);
}

class TraceFile {
 public:
  explicit TraceFile(const char* name) : path_(temp_path(name)) {
    std::remove(path_.c_str());
    util::trace::open(path_);
  }
  ~TraceFile() {
    util::trace::close();
    std::remove(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(TraceSpan, NestedSpansShareAParentAndCarryCrc) {
  TraceFile trace("rgleak_trace_nested.jsonl");
  {
    util::trace::Span outer("attempt", "job-1", 2);
    { util::trace::Span inner("phase.parse", "job-1"); }
    { util::trace::Span inner2("phase.estimate", "job-1"); }
  }
  util::trace::close();

  const std::vector<std::string> lines = read_lines(trace.path());
  ASSERT_EQ(lines.size(), 3u);
  // Spans are emitted at destruction: children precede their parent.
  const JsonObject inner = parse_span(lines[0]);
  const JsonObject inner2 = parse_span(lines[1]);
  const JsonObject outer = parse_span(lines[2]);
  EXPECT_EQ(outer.at("name"), "attempt");
  EXPECT_EQ(outer.at("job"), "job-1");
  EXPECT_EQ(outer.at("attempt"), "2");
  EXPECT_EQ(outer.at("parent"), "");
  EXPECT_EQ(outer.at("outcome"), "ok");
  EXPECT_EQ(inner.at("name"), "phase.parse");
  EXPECT_EQ(inner.at("attempt"), "-1");  // -1 = not an attempt-scoped span
  EXPECT_EQ(inner.at("parent"), outer.at("span"));
  EXPECT_EQ(inner2.at("parent"), outer.at("span"));
  EXPECT_NE(inner.at("span"), inner2.at("span"));
  // Containment in steady-clock ns.
  const long long ot = std::stoll(outer.at("t_ns")), ow = std::stoll(outer.at("wall_ns"));
  const long long it = std::stoll(inner.at("t_ns")), iw = std::stoll(inner.at("wall_ns"));
  EXPECT_GE(it, ot);
  EXPECT_LE(it + iw, ot + ow);
}

TEST(TraceSpan, ExceptionUnwindMarksErrorAndSetOutcomeWins) {
  TraceFile trace("rgleak_trace_outcome.jsonl");
  try {
    util::trace::Span span("failing");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  {
    util::trace::Span span("labelled");
    span.set_outcome("crash");
  }
  util::trace::close();

  const std::vector<std::string> lines = read_lines(trace.path());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(parse_span(lines[0]).at("outcome"), "error");
  EXPECT_EQ(parse_span(lines[1]).at("outcome"), "crash");
}

TEST(TraceSpan, DisarmedSpansWriteNothing) {
  const std::string path = temp_path("rgleak_trace_disarmed.jsonl");
  std::remove(path.c_str());
  util::trace::close();  // ensure disarmed
  { util::trace::Span span("ignored"); }
  std::ifstream in(path);
  EXPECT_FALSE(in.good());
}

class FnExecutor : public Executor {
 public:
  using Fn = std::function<JobOutput(const JobSpec&, const util::RunControl*, int)>;
  explicit FnExecutor(Fn fn) : fn_(std::move(fn)) {}
  JobOutput execute(const JobSpec& job, const util::RunControl* watchdog, int degrade) override {
    return fn_(job, watchdog, degrade);
  }

 private:
  Fn fn_;
};

// The headline cross-process property: a kProcess batch's children emit
// phase spans into the same O_APPEND file, with ids carrying the CHILD pid
// and parents pointing at the SUPERVISOR-side attempt span (the thread-local
// span stack is inherited across fork).
TEST(TraceSpanIsolate, ForkedChildrenParentToSupervisorAttemptSpans) {
  TraceFile trace("rgleak_trace_fork.jsonl");
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 3; ++i) {
    JobSpec j;
    j.id = "trace-" + std::to_string(i);
    j.kind = "synthetic";
    jobs.push_back(j);
  }
  FnExecutor exec([](const JobSpec& job, const util::RunControl* wd, int) {
    wd->beat();
    const util::trace::Span span("phase.estimate", job.id);
    JobOutput out;
    out.mean_na = 1.0;
    out.sigma_na = 0.1;
    out.method = "synthetic";
    return out;
  });
  Journal journal = Journal::open("");
  BatchOptions opts;
  opts.isolate = ExecIsolation::kProcess;
  opts.workers = 2;
  const BatchSummary s = run_batch(jobs, exec, journal, opts);
  util::trace::close();
  ASSERT_EQ(s.succeeded, 3u);

  std::map<std::string, JsonObject> by_id;
  for (const std::string& line : read_lines(trace.path())) {
    JsonObject obj = parse_span(line);
    by_id.emplace(obj.at("span"), std::move(obj));
  }

  const std::string super_pid = std::to_string(static_cast<long>(::getpid()));
  std::size_t attempts = 0, child_phases = 0;
  for (const auto& [id, obj] : by_id) {
    const std::string pid = id.substr(0, id.find(':'));
    if (obj.at("name") == "attempt") {
      ++attempts;
      EXPECT_EQ(pid, super_pid) << "attempt spans belong to the supervisor";
      EXPECT_EQ(obj.at("outcome"), "ok");
    } else if (obj.at("name") == "phase.estimate") {
      ++child_phases;
      EXPECT_NE(pid, super_pid) << "phase spans must carry the child pid";
      // Parent is a supervisor-side attempt span for the same job, and the
      // child interval nests inside it (steady clock is host-wide).
      const auto parent = by_id.find(obj.at("parent"));
      ASSERT_NE(parent, by_id.end()) << "parent ref must resolve within the file";
      EXPECT_EQ(parent->second.at("name"), "attempt");
      EXPECT_EQ(parent->second.at("job"), obj.at("job"));
      const long long pt = std::stoll(parent->second.at("t_ns"));
      const long long pw = std::stoll(parent->second.at("wall_ns"));
      const long long ct = std::stoll(obj.at("t_ns"));
      const long long cw = std::stoll(obj.at("wall_ns"));
      EXPECT_GE(ct, pt);
      EXPECT_LE(ct + cw, pt + pw);
    }
  }
  EXPECT_EQ(attempts, 3u);
  EXPECT_EQ(child_phases, 3u);
}

}  // namespace
}  // namespace rgleak::service

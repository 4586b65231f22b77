// Manifest parsing and journal-record round-trips.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "service/job.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace rgleak::service {
namespace {

std::vector<JobSpec> parse(const std::string& text) {
  std::istringstream is(text);
  return parse_manifest(is, "jobs.jsonl");
}

/// A hand-written journal line with a valid "crc" field.
std::string stamped(std::string record) {
  util::append_crc_field(record);
  return record;
}

/// The ParseError parse_journal_record throws for `text` at line 4.
ParseError journal_error(const std::string& text) {
  try {
    (void)parse_journal_record(text, "j", 4);
  } catch (const ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected ParseError for: " << text;
  return ParseError("j", 0, 0, "none");
}

TEST(Manifest, ParsesJobsSkippingBlanksAndComments) {
  const auto jobs = parse(
      "# a comment\n"
      "\n"
      "{\"id\":\"a\",\"kind\":\"mc\",\"trials\":50,\"lib\":\"x.rgchar\"}\n"
      "   \t\n"
      "{\"id\":\"b\",\"kind\":\"estimate\"}\n");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, "a");
  EXPECT_EQ(jobs[0].kind, "mc");
  EXPECT_EQ(jobs[0].line, 3u);
  EXPECT_EQ(jobs[0].params.at("trials"), "50");
  EXPECT_EQ(jobs[0].params.at("lib"), "x.rgchar");
  EXPECT_EQ(jobs[0].params.count("id"), 0u);  // id/kind are lifted out
  EXPECT_EQ(jobs[1].id, "b");
  EXPECT_EQ(jobs[1].line, 5u);
}

TEST(Manifest, MissingIdOrKindIsALocatedParseError) {
  try {
    parse("{\"id\":\"a\",\"kind\":\"mc\"}\n{\"kind\":\"mc\"}\n");
    ADD_FAILURE() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.source(), "jobs.jsonl");
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("\"id\""), std::string::npos) << e.what();
  }
  EXPECT_THROW(parse("{\"id\":\"a\"}\n"), ParseError);
  EXPECT_THROW(parse("{\"id\":\"\",\"kind\":\"mc\"}\n"), ParseError);
}

TEST(Manifest, DuplicateIdIsAParseError) {
  try {
    parse("{\"id\":\"a\",\"kind\":\"mc\"}\n{\"id\":\"a\",\"kind\":\"mc\"}\n");
    ADD_FAILURE() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("duplicate job id"), std::string::npos) << e.what();
  }
}

TEST(Manifest, ReadLineFailpointPropagates) {
  const util::ScopedFailpoint fp("service.manifest.read_line", util::FailpointAction::kThrow, 1);
  EXPECT_THROW(parse("{\"id\":\"a\",\"kind\":\"mc\"}\n"), util::FailpointError);
}

TEST(Manifest, MissingFileIsIoError) {
  EXPECT_THROW(load_manifest("/nonexistent/jobs.jsonl"), IoError);
}

TEST(JournalRecord, SucceededRoundTrips) {
  JobRecord rec;
  rec.id = "job-1";
  rec.status = JobStatus::kSucceeded;
  rec.attempts = 2;
  rec.wall_ms = 12.3456;
  rec.mean_na = 1234.5678901234567;
  rec.sigma_na = 98.765;
  rec.method = "exact_fft";
  const JobRecord back = parse_journal_record(journal_record_json(rec), "j", 1);
  EXPECT_EQ(back.id, rec.id);
  EXPECT_EQ(back.status, JobStatus::kSucceeded);
  EXPECT_EQ(back.attempts, 2);
  EXPECT_NEAR(back.wall_ms, rec.wall_ms, 1e-4);
  EXPECT_EQ(back.mean_na, rec.mean_na);  // 17 significant digits: bit-exact
  EXPECT_EQ(back.sigma_na, rec.sigma_na);
  EXPECT_EQ(back.method, "exact_fft");
}

TEST(JournalRecord, FailedRoundTrip) {
  JobRecord rec;
  rec.id = "bad";
  rec.status = JobStatus::kFailed;
  rec.attempts = 3;
  rec.error = "{\"error\":\"numerical\",\"message\":\"nan \\\"quoted\\\"\"}";
  const JobRecord back = parse_journal_record(journal_record_json(rec), "j", 1);
  EXPECT_EQ(back.status, JobStatus::kFailed);
  EXPECT_EQ(back.error, rec.error);
  EXPECT_EQ(back.attempts, 3);
}

TEST(JournalRecord, DegradationAndBeatsAreOptionalFields) {
  JobRecord rec;
  rec.id = "job-2";
  rec.status = JobStatus::kSucceeded;
  rec.attempts = 1;
  rec.mean_na = 1.0;
  rec.sigma_na = 0.5;
  rec.method = "linear";

  // Defaulted fields stay off the wire: old journals and new readers agree.
  const std::string bare = journal_record_json(rec);
  EXPECT_EQ(bare.find("degradation"), std::string::npos) << bare;
  EXPECT_EQ(bare.find("beats"), std::string::npos) << bare;
  JobRecord back = parse_journal_record(bare, "j", 1);
  EXPECT_TRUE(back.degradation.empty());
  EXPECT_EQ(back.beats, 0u);

  rec.degradation = "mem: exact_fft->exact_direct";
  rec.beats = 77;
  back = parse_journal_record(journal_record_json(rec), "j", 1);
  EXPECT_EQ(back.degradation, "mem: exact_fft->exact_direct");
  EXPECT_EQ(back.beats, 77u);
}

TEST(JournalRecord, MalformedRecordsAreParseErrors) {
  const auto parse = [](const char* text) { return parse_journal_record(stamped(text), "j", 4); };
  EXPECT_THROW(parse("{\"job\":\"a\"}"), ParseError);  // no status
  EXPECT_THROW(parse("{\"job\":\"a\",\"status\":\"meh\"}"), ParseError);
  // A succeeded record without its payload is corrupt, not "mean zero".
  EXPECT_THROW(parse("{\"job\":\"a\",\"status\":\"ok\"}"), ParseError);
}

TEST(JournalRecord, ShedStatusIsRefused) {
  // "shed" is not a status this journal writes: a record holding it is
  // refused with the status named, not silently re-run or counted as failed.
  const ParseError e =
      journal_error(stamped("{\"job\":\"a\",\"status\":\"shed\",\"attempts\":0}"));
  EXPECT_EQ(e.line(), 4u);
  EXPECT_EQ(e.token(), "shed");
}

TEST(JournalRecord, CrcFieldIsMandatoryWellFormedAndLast) {
  const std::string good = stamped("{\"job\":\"a\",\"status\":\"ok\",\"mean_na\":42}");
  EXPECT_EQ(parse_journal_record(good, "j", 4).mean_na, 42.0);

  // A crc digit that is not hex must not skip verification: the tampered
  // payload below would otherwise load with mean 99.
  std::string tampered = good;
  tampered.replace(tampered.find("42"), 2, "99");
  tampered[tampered.size() - 3] = 'z';
  const ParseError non_hex = journal_error(tampered);
  EXPECT_EQ(non_hex.line(), 4u);
  EXPECT_NE(non_hex.message().find("malformed crc"), std::string::npos) << non_hex.what();

  const ParseError missing =
      journal_error("{\"job\":\"a\",\"status\":\"ok\",\"mean_na\":42}");
  EXPECT_EQ(missing.line(), 4u);
  EXPECT_NE(missing.message().find("no \"crc\""), std::string::npos) << missing.what();

  // The crc moved before another field.
  const std::string crc = good.substr(good.find(",\"crc\""), 18);
  const std::string moved =
      "{\"job\":\"a\"" + crc.substr(0, crc.size() - 1) + ",\"status\":\"ok\",\"mean_na\":42}";
  const ParseError not_last = journal_error(moved);
  EXPECT_EQ(not_last.line(), 4u);
  EXPECT_NE(not_last.message().find("last field"), std::string::npos) << not_last.what();
}

}  // namespace
}  // namespace rgleak::service

// Structured logging (common/logging.h): wire-format rendering for both
// text and JSON, run-id tagging and format parsing. RenderLogLine is
// pure and clock-free, so every test here is deterministic.

#include "common/logging.h"

#include <string>

#include <gtest/gtest.h>

#include "obs/json.h"

namespace pmkm {
namespace {

using internal::FormatLogTimestamp;
using internal::RenderLogLine;

TEST(LogTimestampTest, FormatsUtcMilliseconds) {
  // 2026-08-08T12:00:01.234Z
  EXPECT_EQ(FormatLogTimestamp(1786190401234), "2026-08-08T12:00:01.234Z");
  EXPECT_EQ(FormatLogTimestamp(0), "1970-01-01T00:00:00.000Z");
}

TEST(LogTimestampTest, FloorsTimesBeforeTheEpoch) {
  // Truncating division would print second 0 with millisecond -1.
  EXPECT_EQ(FormatLogTimestamp(-1), "1969-12-31T23:59:59.999Z");
  EXPECT_EQ(FormatLogTimestamp(-1000), "1969-12-31T23:59:59.000Z");
  EXPECT_EQ(FormatLogTimestamp(-1001), "1969-12-31T23:59:58.999Z");
  EXPECT_EQ(FormatLogTimestamp(-86400000), "1969-12-31T00:00:00.000Z");
  EXPECT_EQ(FormatLogTimestamp(999), "1970-01-01T00:00:00.999Z");
}

TEST(LogTimestampTest, RendersFiveDigitYears) {
  // 10000-01-01T00:00:00.000Z: the buffer holds any year.
  EXPECT_EQ(FormatLogTimestamp(253402300800000), "10000-01-01T00:00:00.000Z");
}

TEST(RenderLogLineTest, TextFormat) {
  const std::string line =
      RenderLogLine(LogLevel::kWarning, "ops.cc", 217, "queue stalled",
                    LogFormat::kText, "1f2e3d4c", 1786190401234);
  EXPECT_EQ(line,
            "[WARN 2026-08-08T12:00:01.234Z ops.cc:217 run=1f2e3d4c] "
            "queue stalled");
}

TEST(RenderLogLineTest, TextFormatWithoutRunId) {
  const std::string line =
      RenderLogLine(LogLevel::kInfo, "engine.cc", 10, "hello",
                    LogFormat::kText, "", 0);
  EXPECT_EQ(line,
            "[INFO 1970-01-01T00:00:00.000Z engine.cc:10] hello");
}

TEST(RenderLogLineTest, JsonFormatParsesAndCarriesFields) {
  const std::string line =
      RenderLogLine(LogLevel::kError, "scan.cc", 42, "bad \"bucket\"\n",
                    LogFormat::kJson, "abcd", 1786190401234);
  auto doc = JsonValue::Parse(line);
  ASSERT_TRUE(doc.ok()) << line;
  EXPECT_EQ(doc->Find("level")->AsString(), "ERROR");
  EXPECT_EQ(doc->Find("ts")->AsString(), "2026-08-08T12:00:01.234Z");
  EXPECT_EQ(doc->Find("src")->AsString(), "scan.cc:42");
  EXPECT_EQ(doc->Find("run_id")->AsString(), "abcd");
  // The message survives JSON escaping round-trip exactly.
  EXPECT_EQ(doc->Find("msg")->AsString(), "bad \"bucket\"\n");
}

TEST(RenderLogLineTest, JsonFormatOmitsEmptyRunId) {
  const std::string line = RenderLogLine(
      LogLevel::kInfo, "a.cc", 1, "m", LogFormat::kJson, "", 0);
  auto doc = JsonValue::Parse(line);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("run_id"), nullptr);
}

TEST(ParseLogFormatTest, ValidAndInvalidNames) {
  LogFormat format = LogFormat::kText;
  EXPECT_TRUE(ParseLogFormat("json", &format));
  EXPECT_EQ(format, LogFormat::kJson);
  EXPECT_TRUE(ParseLogFormat("text", &format));
  EXPECT_EQ(format, LogFormat::kText);
  EXPECT_FALSE(ParseLogFormat("xml", &format));
  EXPECT_FALSE(ParseLogFormat("", &format));
  EXPECT_EQ(format, LogFormat::kText);  // unchanged on failure
}

TEST(LogRunIdTest, GlobalRoundTrip) {
  SetLogRunId("feedface");
  testing::internal::CaptureStderr();
  PMKM_LOG(Warning) << "tagged";
  EXPECT_NE(testing::internal::GetCapturedStderr().find(" run=feedface] "
                                                        "tagged"),
            std::string::npos);
  SetLogRunId("");
  testing::internal::CaptureStderr();
  PMKM_LOG(Warning) << "untagged";
  EXPECT_EQ(testing::internal::GetCapturedStderr().find("run="),
            std::string::npos);
}

TEST(LogFormatTest, GlobalRoundTrip) {
  SetLogFormat(LogFormat::kJson);
  EXPECT_EQ(GetLogFormat(), LogFormat::kJson);
  SetLogFormat(LogFormat::kText);
  EXPECT_EQ(GetLogFormat(), LogFormat::kText);
}

}  // namespace
}  // namespace pmkm

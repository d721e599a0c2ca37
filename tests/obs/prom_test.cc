// Prometheus text-exposition conformance for MetricsRegistry
// (obs/metrics.h). Asserts the format contract a scraper relies on:
// HELP/TYPE lines precede every metric, label values are escaped, metric
// names are sanitized, and counters / histogram _count/_sum never move
// backwards across scrapes — including the rolling instruments, whose
// windows empty out.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/rolling.h"

namespace pmkm {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

bool Contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

// The value of the first sample line whose name part matches exactly.
double SampleValue(const std::string& text, const std::string& name) {
  for (const std::string& line : Lines(text)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  ADD_FAILURE() << "no sample line for " << name;
  return -1.0;
}

TEST(PromConformanceTest, LabelValueEscaping) {
  EXPECT_EQ(PromEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(PromEscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(PromEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(PromEscapeLabelValue("a\nb"), "a\\nb");
  EXPECT_EQ(PromEscapeLabelValue("\\\"\n"), "\\\\\\\"\\n");
}

TEST(PromConformanceTest, RunInfoLabelIsEscaped) {
  MetricsRegistry registry;
  registry.SetRunId("id\"with\\odd\nchars");
  const std::string text = registry.ToPrometheusText();
  EXPECT_TRUE(Contains(
      text, "pmkm_run_info{run_id=\"id\\\"with\\\\odd\\nchars\"} 1"))
      << text;
}

TEST(PromConformanceTest, MetricNamesAreSanitized) {
  MetricsRegistry registry;
  registry.counter("scan.rows-read").Increment(3);
  const std::string text = registry.ToPrometheusText();
  // Dots and dashes are not legal in metric names; both map to '_'.
  EXPECT_TRUE(Contains(text, "pmkm_scan_rows_read 3")) << text;
  // The raw name never leaks into the exposition — fallback HELP text
  // uses the sanitized name too.
  EXPECT_FALSE(Contains(text, "scan.rows-read")) << text;
}

TEST(PromConformanceTest, EveryMetricHasHelpAndTypeBeforeSamples) {
  MetricsRegistry registry;
  registry.counter("rows").Increment(1);
  registry.gauge("depth").Set(4);
  registry.histogram("lat_us").Record(100.0);
  registry.rolling_histogram("roll_us").Record(50.0);
  const std::vector<std::string> lines =
      Lines(registry.ToPrometheusText());
  // Walk the exposition: a sample line's metric family must have been
  // introduced by a # TYPE line earlier (with a # HELP directly before).
  std::string last_typed;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.rfind("# TYPE ", 0) == 0) {
      ASSERT_GT(i, 0u);
      EXPECT_EQ(lines[i - 1].rfind("# HELP ", 0), 0u)
          << "TYPE without preceding HELP: " << line;
      std::istringstream in(line);
      std::string hash, type_kw, name, kind;
      in >> hash >> type_kw >> name >> kind;
      EXPECT_TRUE(kind == "counter" || kind == "gauge" ||
                  kind == "summary")
          << line;
      last_typed = name;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const std::string name = line.substr(0, line.find_first_of("{ "));
    // A sample belongs to the most recently TYPEd family (exactly how
    // the exposition format groups them); _sum/_count ride on their
    // parent family's TYPE.
    EXPECT_TRUE(name == last_typed ||
                name == last_typed + "_sum" ||
                name == last_typed + "_count")
        << "sample " << name << " not under its family (last TYPE: "
        << last_typed << ")";
  }
}

TEST(PromConformanceTest, CountersAreMonotonicAcrossScrapes) {
  MetricsRegistry registry;
  Counter& c = registry.counter("rows");
  Histogram& h = registry.histogram("lat_us");
  double last_counter = 0.0, last_count = 0.0, last_sum = 0.0;
  for (int scrape = 0; scrape < 5; ++scrape) {
    c.Increment(scrape);  // including a zero-increment scrape
    h.Record(10.0 * scrape + 1.0);
    const std::string text = registry.ToPrometheusText();
    const double counter = SampleValue(text, "pmkm_rows");
    const double count = SampleValue(text, "pmkm_lat_us_count");
    const double sum = SampleValue(text, "pmkm_lat_us_sum");
    EXPECT_GE(counter, last_counter);
    EXPECT_GE(count, last_count);
    EXPECT_GE(sum, last_sum);
    last_counter = counter;
    last_count = count;
    last_sum = sum;
  }
}

TEST(PromConformanceTest, RollingExportsStayMonotonicAsWindowEmpties) {
  MetricsRegistry registry;
  RollingHistogram& rh = registry.rolling_histogram("roll_us", 5);
  rh.RecordAt(100.0, 0);
  const std::string before = registry.ToPrometheusText();
  // The wall-clock window may or may not still contain tick 0 at scrape
  // time; either way the cumulative series must not regress.
  const double count0 = SampleValue(before, "pmkm_roll_us_count");
  EXPECT_DOUBLE_EQ(count0, 1.0);
  // Even with the window provably empty (snapshot far in the future),
  // the instrument reports cumulative _count/_sum.
  EXPECT_EQ(rh.SnapshotAt(1000).count, 0u);
  const std::string after = registry.ToPrometheusText();
  EXPECT_GE(SampleValue(after, "pmkm_roll_us_count"), count0);
  // The windowed quantile samples carry the window label.
  EXPECT_TRUE(Contains(after, "pmkm_roll_us{window=\"5s\",quantile=\"0.999\"}"))
      << after;
}

// Golden scrape: a deterministic registry renders byte-for-byte stably.
// This pins the exposition layout — if the format changes on purpose,
// update the golden text here and bump DESIGN.md §14.
TEST(PromConformanceTest, GoldenExposition) {
  MetricsRegistry registry;
  registry.SetRunId("cafe0123");
  registry.counter("rows").Increment(42);
  registry.gauge("queue.depth").Set(3);
  registry.gauge("queue.depth").Set(2);  // max stays 3
  Histogram& h = registry.histogram("lat_us");
  for (int i = 0; i < 4; ++i) h.Record(8.0);  // single bucket, exact ends
  const std::string expected =
      "# HELP pmkm_run_info Active run identity (run_id label).\n"
      "# TYPE pmkm_run_info gauge\n"
      "pmkm_run_info{run_id=\"cafe0123\"} 1\n"
      "# HELP pmkm_rows Cumulative count of pmkm_rows.\n"
      "# TYPE pmkm_rows counter\n"
      "pmkm_rows 42\n"
      "# HELP pmkm_queue_depth Last observed value of pmkm_queue_depth.\n"
      "# TYPE pmkm_queue_depth gauge\n"
      "pmkm_queue_depth 2\n"
      "# HELP pmkm_queue_depth_max High-water mark of pmkm_queue_depth.\n"
      "# TYPE pmkm_queue_depth_max gauge\n"
      "pmkm_queue_depth_max 3\n"
      "# HELP pmkm_lat_us Distribution of pmkm_lat_us.\n"
      "# TYPE pmkm_lat_us summary\n"
      "pmkm_lat_us{quantile=\"0.5\"} 8\n"
      "pmkm_lat_us{quantile=\"0.95\"} 8\n"
      "pmkm_lat_us{quantile=\"0.99\"} 8\n"
      "pmkm_lat_us{quantile=\"0.999\"} 8\n"
      "pmkm_lat_us_sum 32\n"
      "pmkm_lat_us_count 4\n";
  EXPECT_EQ(registry.ToPrometheusText(), expected);
}

}  // namespace
}  // namespace pmkm

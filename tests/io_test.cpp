#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "io/csv.hpp"
#include "io/report.hpp"
#include "io/text.hpp"
#include "mlab/campaign.hpp"
#include "snoid/pipeline.hpp"
#include "synth/world.hpp"

namespace satnet::io {
namespace {

// ------------------------------------------------------------- CsvWriter

/// The text the writer produces for `v` as the only field of a row,
/// without the header and the row's newline. The destructor flushes.
template <typename T>
std::string one_field(T v) {
  std::ostringstream out;
  {
    CsvWriter csv(out);
    csv.header({"x"});
    csv.field(v).end_row();
  }
  const std::string text = out.str();
  return text.substr(2, text.size() - 3);
}

std::string printf_4f(double v) {
  char buf[400];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

double from_bits(std::uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// appendf sizes its output from the formatted length: a row longer than
// any fixed scratch buffer arrives whole, after what `out` already held.
TEST(TextTest, AppendfKeepsRowsOfAnyLength) {
  const std::string cell(600, 'x');
  std::string out = "head|";
  io::appendf(out, "%s|%5d|%.2f", cell.c_str(), 42, 2.5);
  std::string want = "head|";
  (want += cell) += "|   42|2.50";
  EXPECT_EQ(out, want);
  io::appendf(out, "%s", "");
  EXPECT_EQ(out, want);
}

TEST(TextTest, HeaderAndNoteFraming) {
  std::string out;
  io::append_header(out, "Figure 9", "caption");
  io::append_note(out, "note");
  const std::string rule(64, '=');
  std::string want = "\n";
  ((((want += rule) += "\nFigure 9 — caption\n") += rule) += "\n  note\n");
  EXPECT_EQ(out, want);
}

TEST(CsvWriterTest, PlainFieldsUnquoted) {
  EXPECT_EQ(one_field("hello"), "hello");
  EXPECT_EQ(one_field("12.5"), "12.5");
}

TEST(CsvWriterTest, CommaTriggersQuoting) {
  EXPECT_EQ(one_field("a,b"), "\"a,b\"");
}

TEST(CsvWriterTest, QuotesDoubled) {
  EXPECT_EQ(one_field("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvWriterTest, NewlineQuoted) {
  EXPECT_EQ(one_field("a\nb"), "\"a\nb\"");
  EXPECT_EQ(one_field("a\rb"), "\"a\rb\"");
}

TEST(CsvWriterTest, HeaderThenRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b"});
  csv.field(1).field(2).end_row();
  csv.field(3).field("x,y").end_row();
  csv.flush();
  EXPECT_EQ(out.str(), "a,b\n1,2\n3,\"x,y\"\n");
  EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(CsvWriterTest, RowWidthEnforced) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b"});
  csv.field("only one");
  EXPECT_THROW(csv.end_row(), std::invalid_argument);
  // The rejected row leaves no trace; the next one is written whole.
  csv.field(1).field(2).end_row();
  csv.flush();
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
  EXPECT_EQ(csv.rows_written(), 1u);
}

TEST(CsvWriterTest, RowBeforeHeaderThrows) {
  std::ostringstream out;
  CsvWriter csv(out);
  EXPECT_THROW(csv.field("x"), std::logic_error);
  EXPECT_THROW(csv.end_row(), std::logic_error);
}

TEST(CsvWriterTest, DoubleHeaderThrows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a"});
  EXPECT_THROW(csv.header({"a"}), std::logic_error);
}

TEST(CsvWriterTest, BuffersAtMostOneChunk) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"probe_id", "t_sec", "pop"});
  std::size_t total = std::string("probe_id,t_sec,pop\n").size();
  for (int i = 0; i < 200000; ++i) {
    const double t = 28800.0 * i;
    csv.field(i).field(t).field("wrswpol1").end_row();
    total += std::to_string(i).size() + printf_4f(t).size() + 11;
    ASSERT_LE(total - static_cast<std::size_t>(out.tellp()), CsvWriter::kFlushBytes)
        << "row " << i;
  }
  EXPECT_GT(total, 3 * CsvWriter::kFlushBytes);
  csv.flush();
  EXPECT_EQ(out.str().size(), total);
}

// [charconv] defines to_chars with a precision as printf in the C
// locale; these pin that for the "%.4f" the exports have always used.
TEST(CsvWriterTest, DoubleFieldMatchesPrintf) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double cases[] = {
      0.0, -0.0, -0.00004, 0.00005, -0.00005, 0.00015,
      0.03125, -0.09375,  // exact ties at the fourth decimal
      0x1p53, 1e300, -1e300, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min(), nan, -nan, inf, -inf,
      // year-scale t_sec values of the Atlas and NDT campaigns
      20164.876162, 31622400.0, 31622399.99995, 31535999.123449999,
      483659.25565};
  for (const double v : cases) {
    EXPECT_EQ(one_field(v), printf_4f(v)) << "value " << v;
  }
}

TEST(CsvWriterTest, DoubleFieldMatchesPrintfOnRandomBits) {
  std::mt19937_64 gen(0x5a7e11173);
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) values.push_back(from_bits(gen()));
  // Values next to a rounding tie at the fourth decimal, where a
  // formatter that rounds through binary arithmetic goes wrong.
  const double inf = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 100000; ++i) {
    const double tie = (static_cast<double>(gen() % 400000000000ULL) + 0.5) / 1e4;
    values.push_back(i % 3 == 0 ? tie : std::nextafter(tie, i % 3 == 1 ? inf : -inf));
  }
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"v"});
  std::string expected = "v\n";
  for (const double v : values) {
    csv.field(v).end_row();
    expected += printf_4f(v);
    expected += '\n';
  }
  csv.flush();
  const std::string actual = out.str();
  std::size_t mismatches = 0;
  std::istringstream got(actual), want(expected);
  std::string g, w;
  while (std::getline(got, g) && std::getline(want, w)) {
    if (g != w && ++mismatches <= 5) {
      ADD_FAILURE() << "to_chars " << g << " vs printf " << w;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(actual.size(), expected.size());
}

TEST(CsvWriterTest, IntegerFieldsMatchToString) {
  EXPECT_EQ(one_field(INT_MIN), std::to_string(INT_MIN));
  EXPECT_EQ(one_field(INT_MAX), std::to_string(INT_MAX));
  EXPECT_EQ(one_field(SIZE_MAX), std::to_string(SIZE_MAX));
  EXPECT_EQ(one_field(LLONG_MIN), std::to_string(LLONG_MIN));
  EXPECT_EQ(one_field(0), "0");
  EXPECT_EQ(one_field(std::uint32_t{4294967295U}), "4294967295");
  EXPECT_EQ(one_field(true), "1");
  EXPECT_EQ(one_field(false), "0");
}

// --------------------------------------------------------------- exports

class ExportTest : public ::testing::Test {
 protected:
  static const mlab::NdtDataset& dataset() {
    static const mlab::NdtDataset ds = [] {
      static const synth::World world;
      mlab::CampaignConfig cfg;
      cfg.volume_scale = 0.00005;
      cfg.min_tests_per_sno = 5;
      return mlab::run_campaign(world, cfg);
    }();
    return ds;
  }
};

TEST_F(ExportTest, NdtRowCountMatchesDataset) {
  std::ostringstream out;
  EXPECT_EQ(export_ndt(dataset(), out), dataset().size());
  // header + one line per record
  std::size_t lines = 0;
  for (const char c : out.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, dataset().size() + 1);
}

TEST_F(ExportTest, NdtHeaderColumns) {
  std::ostringstream out;
  export_ndt(dataset(), out);
  const std::string text = out.str();
  const std::string header = text.substr(0, text.find('\n'));
  EXPECT_NE(header.find("latency_p5_ms"), std::string::npos);
  EXPECT_NE(header.find("truth_operator"), std::string::npos);
  // 15 columns -> 14 commas.
  EXPECT_EQ(std::count(header.begin(), header.end(), ','), 14);
}

TEST_F(ExportTest, PipelineExportHasOneRowPerOperator) {
  const auto result = snoid::run_pipeline(dataset());
  std::ostringstream out;
  EXPECT_EQ(export_pipeline(result, out), result.operators.size());
  EXPECT_NE(out.str().find("starlink"), std::string::npos);
}

TEST_F(ExportTest, TracerouteExportWorks) {
  ripe::AtlasConfig cfg;
  cfg.duration_days = 3.0;
  cfg.round_interval_hours = 24.0;
  const auto atlas = ripe::run_atlas_campaign(cfg);
  std::ostringstream out;
  EXPECT_EQ(export_traceroutes(atlas, out), atlas.traceroutes.size());
  EXPECT_NE(out.str().find("cgnat_rtt_ms"), std::string::npos);
}

TEST_F(ExportTest, StudyReportContainsAllSections) {
  const auto result = snoid::run_pipeline(dataset());
  ripe::AtlasConfig cfg;
  cfg.duration_days = 3.0;
  cfg.round_interval_hours = 24.0;
  const auto atlas = ripe::run_atlas_campaign(cfg);
  const std::string report = study_report(dataset(), result, atlas);
  EXPECT_NE(report.find("# SNO performance study report"), std::string::npos);
  EXPECT_NE(report.find("## Identified operators"), std::string::npos);
  EXPECT_NE(report.find("## Cross-orbit summary"), std::string::npos);
  EXPECT_NE(report.find("## Starlink PoP analysis"), std::string::npos);
  EXPECT_NE(report.find("starlink"), std::string::npos);
}

TEST_F(ExportTest, StudyReportSkipsPopSectionWithoutAtlas) {
  const auto result = snoid::run_pipeline(dataset());
  const std::string report = study_report(dataset(), result, ripe::AtlasDataset{});
  EXPECT_EQ(report.find("## Starlink PoP analysis"), std::string::npos);
  EXPECT_NE(report.find("## Cross-orbit summary"), std::string::npos);
}

}  // namespace
}  // namespace satnet::io

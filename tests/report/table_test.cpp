#include "report/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace qsnc::report {
namespace {

TEST(TableTest, AlignsColumns) {
  Table t({"model", "acc"});
  t.add_row({"Lenet", "98.16%"});
  t.add_row({"A", "5%"});
  const std::string s = t.to_string();
  // Both data lines start at the same "acc" column offset.
  std::istringstream is(s);
  std::string header, rule, row1, row2;
  std::getline(is, header);
  std::getline(is, rule);
  std::getline(is, row1);
  std::getline(is, row2);
  EXPECT_EQ(header.find("acc"), row1.find("98.16%"));
  EXPECT_EQ(header.find("acc"), row2.find("5%"));
  EXPECT_EQ(rule.find_first_not_of('-'), std::string::npos);
}

TEST(TableTest, RowArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(FmtTest, FixedDecimals) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.0, 1), "3.0");
  EXPECT_EQ(fmt(-0.5, 2), "-0.50");
}

TEST(PctTest, FormatsFractions) {
  EXPECT_EQ(pct(0.9816), "98.16%");
  EXPECT_EQ(pct(1.0, 0), "100%");
}

TEST(HistogramTest, CountsFallInBins) {
  const std::vector<float> values{0.1f, 0.1f, 0.9f};
  const std::string h = ascii_histogram(values, 0.0f, 1.0f, 2, 10);
  // First bin has 2 entries (the peak, 10 chars), second has 1 (5 chars).
  EXPECT_NE(h.find("##########"), std::string::npos);
  EXPECT_NE(h.find("2"), std::string::npos);
  EXPECT_NE(h.find("1"), std::string::npos);
}

TEST(HistogramTest, OutOfRangeClampsToEdges) {
  const std::vector<float> values{-5.0f, 5.0f};
  const std::string h = ascii_histogram(values, 0.0f, 1.0f, 2, 4);
  std::istringstream is(h);
  std::string line1, line2;
  std::getline(is, line1);
  std::getline(is, line2);
  EXPECT_NE(line1.find("1"), std::string::npos);
  EXPECT_NE(line2.find("1"), std::string::npos);
}

TEST(HistogramTest, BadArgsThrow) {
  EXPECT_THROW(ascii_histogram({}, 0.0f, 1.0f, 0), std::invalid_argument);
  EXPECT_THROW(ascii_histogram({}, 1.0f, 0.0f, 4), std::invalid_argument);
}

}  // namespace
}  // namespace qsnc::report

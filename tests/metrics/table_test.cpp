#include "metrics/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace tempriv::metrics {
namespace {

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RejectsMismatchedRowWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(Table, CsvOutputIsWellFormed) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  std::ostringstream oss;
  t.write_csv(oss);
  EXPECT_EQ(oss.str(), "x,y\n1,2\n3,4\n");
}

TEST(Table, NumericRowsUsePrecision) {
  Table t({"v"});
  t.add_numeric_row(std::vector<double>{1.23456}, 2);
  std::ostringstream oss;
  t.write_csv(oss);
  EXPECT_EQ(oss.str(), "v\n1.23\n");
}

TEST(Table, PrintAlignsColumns) {
  Table t({"name", "v"});
  t.add_row({"long-entry", "1"});
  t.add_row({"x", "22"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  // Header, separator, and both rows.
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_NE(out.find("long-entry"), std::string::npos);
  // Each line ends without trailing separator confusion: 4 newlines total.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, RowCount) {
  Table t({"a"});
  std::ostringstream empty;
  t.write_csv(empty);
  EXPECT_EQ(empty.str(), "a\n");  // the header alone
  t.add_row({"1"});
  std::ostringstream one;
  t.write_csv(one);
  EXPECT_EQ(one.str(), "a\n1\n");
}

TEST(FormatNumber, FixedForModerateMagnitudes) {
  EXPECT_EQ(format_number(1.5, 2), "1.50");
  EXPECT_EQ(format_number(0.0, 2), "0.00");
  EXPECT_EQ(format_number(-12.125, 3), "-12.125");
}

TEST(FormatNumber, ScientificForExtremes) {
  const std::string big = format_number(1.23e9, 2);
  EXPECT_NE(big.find('e'), std::string::npos);
  const std::string small = format_number(1.23e-7, 2);
  EXPECT_NE(small.find('e'), std::string::npos);
}

TEST(Table, SaveCsvWritesFile) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  const std::string path = ::testing::TempDir() + "/tempriv_table_test.csv";
  t.save_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
}

TEST(Table, SaveCsvThrowsOnBadPath) {
  Table t({"a"});
  EXPECT_THROW(t.save_csv("/nonexistent-dir/impossible/file.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace tempriv::metrics

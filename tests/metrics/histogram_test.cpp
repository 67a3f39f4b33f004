#include "metrics/histogram.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace tempriv::metrics {
namespace {

TEST(Histogram, ValidatesConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, BinsSamplesCorrectly) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bin 0
  h.add(9.99);  // bin 9
  h.add(5.0);   // bin 5
  h.add(5.5);   // bin 5
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(5), 2u);
  EXPECT_EQ(h.bin(9), 1u);
}

TEST(Histogram, TracksUnderAndOverflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(-0.1);
  h.add(1.0);  // hi edge is exclusive -> overflow
  h.add(2.5);
  h.add(0.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bin(2), 1u);
}

TEST(Histogram, BinGeometry) {
  Histogram h(10.0, 20.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lower_edge(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_lower_edge(1), 12.0);
  EXPECT_DOUBLE_EQ(h.bin_lower_edge(4), 18.0);
  h.add(15.0);  // the middle of bin 2
  EXPECT_EQ(h.bin(2), 1u);
}

TEST(Histogram, MergeCombinesCountsAndOutOfRangeTallies) {
  Histogram a(0.0, 10.0, 10);
  a.add(0.5);
  a.add(5.0);
  a.add(-1.0);
  Histogram b(0.0, 10.0, 10);
  b.add(5.5);
  b.add(11.0);
  a.merge(b);
  EXPECT_EQ(a.bin(0), 1u);
  EXPECT_EQ(a.bin(5), 2u);
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.overflow(), 1u);
}

TEST(Histogram, MergeRejectsIncompatibleBinning) {
  Histogram a(0.0, 10.0, 10);
  EXPECT_THROW(a.merge(Histogram(0.0, 10.0, 5)), std::invalid_argument);
  EXPECT_THROW(a.merge(Histogram(1.0, 11.0, 10)), std::invalid_argument);
  EXPECT_THROW(a.merge(Histogram(0.0, 20.0, 10)), std::invalid_argument);
  EXPECT_NO_THROW(a.merge(Histogram(0.0, 10.0, 10)));
}

TEST(IntegerHistogram, MergeGrowsToCoverBothDomains) {
  IntegerHistogram a;
  a.add(1);
  a.add(3);
  IntegerHistogram b;
  b.add(3);
  b.add(9);
  a.merge(b);
  EXPECT_EQ(a.count(1), 1u);
  EXPECT_EQ(a.count(3), 2u);
  EXPECT_EQ(a.count(9), 1u);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.max_value(), 9u);
  // Merging into the larger side works too.
  IntegerHistogram c;
  c.add(0);
  a.merge(c);
  EXPECT_EQ(a.count(0), 1u);
  EXPECT_EQ(a.total(), 5u);
}

TEST(IntegerHistogram, CountsAndGrows) {
  IntegerHistogram h;
  h.add(0);
  h.add(3);
  h.add(3);
  h.add(7);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 2u);
  EXPECT_EQ(h.count(7), 1u);
  EXPECT_EQ(h.count(100), 0u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.max_value(), 7u);
}

TEST(IntegerHistogram, EmptyIsSafe) {
  IntegerHistogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.count(0), 0u);
  EXPECT_EQ(h.max_value(), 0u);
}

TEST(TimeWeightedOccupancy, WeighsByDuration) {
  TimeWeightedOccupancy occ;
  occ.record(0.0, 2);   // level 2 from t=0
  occ.record(4.0, 5);   // level 2 held for 4
  occ.record(6.0, 0);   // level 5 held for 2
  occ.finish(10.0);     // level 0 held for 4
  EXPECT_DOUBLE_EQ(occ.total_time(), 10.0);
  EXPECT_DOUBLE_EQ(occ.fraction_at(2), 0.4);
  EXPECT_DOUBLE_EQ(occ.fraction_at(5), 0.2);
  EXPECT_DOUBLE_EQ(occ.fraction_at(0), 0.4);
  EXPECT_DOUBLE_EQ(occ.mean_level(), (2 * 4 + 5 * 2 + 0 * 4) / 10.0);
  EXPECT_EQ(occ.max_level(), 5u);
}

TEST(TimeWeightedOccupancy, EmptyWindowIsSafe) {
  TimeWeightedOccupancy occ;
  EXPECT_DOUBLE_EQ(occ.total_time(), 0.0);
  EXPECT_DOUBLE_EQ(occ.fraction_at(0), 0.0);
  EXPECT_DOUBLE_EQ(occ.mean_level(), 0.0);
}

TEST(TimeWeightedOccupancy, RepeatedSameLevelAccumulates) {
  TimeWeightedOccupancy occ;
  occ.record(0.0, 1);
  occ.record(2.0, 1);
  occ.finish(5.0);
  EXPECT_DOUBLE_EQ(occ.fraction_at(1), 1.0);
}

}  // namespace
}  // namespace tempriv::metrics

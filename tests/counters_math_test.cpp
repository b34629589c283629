// Golden-trace tests for the paper's computation/communication/disk
// breakdown (Tables IV-VI): feed NodeCounters exact busy intervals and
// check the derived percentages and the overlap formula
//   Overlap = (Comp + Comm + Disk - Total) / Total
// against hand-computed values, including the clamp and edge cases.

#include <gtest/gtest.h>

#include <array>
#include <chrono>

#include "core/counters.hpp"

namespace mrts::core {
namespace {

using std::chrono::nanoseconds;

// Dyadic-friendly golden run: total 2.0 s, comp 1.5 s, comm 0.6 s,
// disk 0.9 s. Every quotient below is exact in binary except the 1e-9
// nanosecond conversion, hence EXPECT_DOUBLE_EQ.
TEST(RunBreakdown, GoldenPercentagesAndOverlap) {
  RunBreakdown b;
  b.total_seconds = 2.0;
  b.comp_seconds = 1.5;
  b.comm_seconds = 0.6;
  b.disk_seconds = 0.9;
  EXPECT_DOUBLE_EQ(b.comp_pct(), 75.0);
  EXPECT_DOUBLE_EQ(b.comm_pct(), 30.0);
  EXPECT_DOUBLE_EQ(b.disk_pct(), 45.0);
  // (1.5 + 0.6 + 0.9 - 2.0) / 2.0 = 0.5 -> 50%.
  EXPECT_DOUBLE_EQ(b.overlap_pct(), 50.0);
}

TEST(RunBreakdown, FullySerializedRunClampsOverlapToZero) {
  RunBreakdown b;
  b.total_seconds = 4.0;
  b.comp_seconds = 1.0;
  b.comm_seconds = 0.5;
  b.disk_seconds = 0.5;  // sum 2.0 < total: idle time, not negative overlap
  EXPECT_DOUBLE_EQ(b.overlap_pct(), 0.0);
  EXPECT_DOUBLE_EQ(b.comp_pct(), 25.0);
}

TEST(RunBreakdown, ZeroTotalYieldsZeroesNotNan) {
  RunBreakdown b;
  b.comp_seconds = 1.0;
  EXPECT_DOUBLE_EQ(b.comp_pct(), 0.0);
  EXPECT_DOUBLE_EQ(b.comm_pct(), 0.0);
  EXPECT_DOUBLE_EQ(b.disk_pct(), 0.0);
  EXPECT_DOUBLE_EQ(b.overlap_pct(), 0.0);
}

TEST(RunBreakdown, PerfectOverlapIsTwoHundredPercent) {
  RunBreakdown b;
  b.total_seconds = 1.0;
  b.comp_seconds = 1.0;
  b.comm_seconds = 1.0;
  b.disk_seconds = 1.0;  // all three threads busy the whole time
  EXPECT_DOUBLE_EQ(b.overlap_pct(), 200.0);
}

TEST(MakeBreakdown, AveragesBusyTimesAcrossNodes) {
  const std::array<BusyTimes, 2> nodes = {
      BusyTimes{.comp_seconds = 1.0, .comm_seconds = 2.0, .disk_seconds = 3.0},
      BusyTimes{.comp_seconds = 3.0, .comm_seconds = 2.0, .disk_seconds = 1.0},
  };
  const RunBreakdown b = make_breakdown(4.0, nodes);
  EXPECT_DOUBLE_EQ(b.comp_seconds, 2.0);
  EXPECT_DOUBLE_EQ(b.comm_seconds, 2.0);
  EXPECT_DOUBLE_EQ(b.disk_seconds, 2.0);
  EXPECT_DOUBLE_EQ(b.comp_pct(), 50.0);
  EXPECT_DOUBLE_EQ(b.comm_pct(), 50.0);
  EXPECT_DOUBLE_EQ(b.disk_pct(), 50.0);
  // (2 + 2 + 2 - 4) / 4 = 0.5 -> 50%.
  EXPECT_DOUBLE_EQ(b.overlap_pct(), 50.0);
}

TEST(MakeBreakdown, EmptyNodeListGivesZeroBreakdown) {
  const RunBreakdown b = make_breakdown(3.0, {});
  EXPECT_DOUBLE_EQ(b.total_seconds, 3.0);
  EXPECT_DOUBLE_EQ(b.comp_seconds, 0.0);
  EXPECT_DOUBLE_EQ(b.overlap_pct(), 0.0);
}

// The same numbers driven end-to-end through NodeCounters'
// TimeAccumulators, the path a deterministic Cluster::run uses.
TEST(NodeCounters, AccumulatorDrivenGoldenBreakdown) {
  NodeCounters a;
  NodeCounters b;
  a.comp_time.add(nanoseconds{1'000'000'000});  // 1.0 s
  a.comm_time.add(nanoseconds{2'000'000'000});
  a.disk_time.add(nanoseconds{1'500'000'000});
  b.comp_time.add(nanoseconds{3'000'000'000});
  b.comm_time.add(nanoseconds{1'000'000'000});  // charged in two intervals
  b.comm_time.add(nanoseconds{1'000'000'000});
  b.disk_time.add(nanoseconds{500'000'000});

  const std::array<BusyTimes, 2> busy = {
      BusyTimes{a.comp_time.seconds(), a.comm_time.seconds(),
                a.disk_time.seconds()},
      BusyTimes{b.comp_time.seconds(), b.comm_time.seconds(),
                b.disk_time.seconds()},
  };
  const RunBreakdown r = make_breakdown(4.0, busy);
  EXPECT_DOUBLE_EQ(r.comp_seconds, 2.0);
  EXPECT_DOUBLE_EQ(r.comm_seconds, 2.0);
  EXPECT_DOUBLE_EQ(r.disk_seconds, 1.0);
  EXPECT_DOUBLE_EQ(r.overlap_pct(), 25.0);
}

TEST(NodeCounters, ResetTimesClearsOnlyAccumulators) {
  NodeCounters c;
  c.comp_time.add(nanoseconds{5});
  c.messages_executed.store(7);
  c.reset_times();
  EXPECT_EQ(c.comp_time.total().count(), 0);
  EXPECT_EQ(c.messages_executed.load(), 7u);
}

}  // namespace
}  // namespace mrts::core

namespace mrts::core {
namespace {

// Elision ratio: elided bytes over total eviction traffic (stored +
// elided). Dyadic inputs keep every quotient exact.
TEST(ElisionRatio, GoldenValues) {
  EXPECT_DOUBLE_EQ(elision_ratio(3072, 1024), 0.25);
  EXPECT_DOUBLE_EQ(elision_ratio(0, 512), 1.0);
  EXPECT_DOUBLE_EQ(elision_ratio(512, 0), 0.0);
  EXPECT_DOUBLE_EQ(elision_ratio(1024, 1024), 0.5);
}

TEST(ElisionRatio, ZeroTrafficYieldsZeroNotNan) {
  EXPECT_DOUBLE_EQ(elision_ratio(0, 0), 0.0);
}

}  // namespace
}  // namespace mrts::core

// Tests of the benchmark's own helpers: percentile selection and sample
// counts, the interval-median tail, stream determinism under the
// token-selection rule, and the ratio arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "report.hpp"
#include "stream.hpp"

namespace perfbench {
namespace {

TEST(NearestRank, SelectsTheSmallestSampleCoveringTheShare) {
  std::vector<float> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(static_cast<float>(i));
  EXPECT_EQ(nearest_rank(xs, 0.50), 50.0);
  EXPECT_EQ(nearest_rank(xs, 0.99), 99.0);
  EXPECT_EQ(nearest_rank(xs, 1.00), 100.0);
  EXPECT_EQ(nearest_rank(xs, 0.0), 1.0);
  std::vector<float> one = {7.0F};
  EXPECT_EQ(nearest_rank(one, 0.99), 7.0);
  std::vector<float> none;
  EXPECT_TRUE(std::isnan(nearest_rank(none, 0.5)));
}

TEST(Median, AveragesTheMiddlePairOfAnEvenCount) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_TRUE(std::isnan(median({})));
}

TEST(IntervalLatencies, ReportsEverySampleInTheCount) {
  IntervalLatencies lat(3);
  for (int i = 0; i < 10; ++i) lat.add(static_cast<std::size_t>(i % 3), 1.0F);
  const Tail t = lat.tail();
  EXPECT_EQ(t.count, 10u);
  EXPECT_EQ(t.p50, 1.0);
}

TEST(IntervalLatencies, OneStalledIntervalDoesNotMoveTheTail) {
  constexpr std::size_t kN = IntervalLatencies::kMinSamples;
  IntervalLatencies lat(5);
  for (std::size_t k = 0; k < 5; ++k) {
    for (std::size_t i = 0; i < kN; ++i) {
      // Interval 2 stalls: its slowest 10% of requests take 1000 µs.
      const bool stalled = k == 2 && i >= kN * 90 / 100;
      lat.add(k, stalled ? 1000.0F : static_cast<float>(i % 100 + 1));
    }
  }
  const Tail t = lat.tail();
  EXPECT_EQ(t.intervals, 5u);
  EXPECT_EQ(t.p50, 50.0);
  EXPECT_EQ(t.p90, 90.0);
  EXPECT_EQ(t.p95, 95.0);
  EXPECT_EQ(t.p99, 99.0);  // the whole-window p99 would be 1000
  EXPECT_EQ(t.count, 5 * kN);
}

TEST(IntervalLatencies, ReportsTheCalmQuartileOfTheIntervals) {
  constexpr std::size_t kN = IntervalLatencies::kMinSamples;
  IntervalLatencies lat(4);
  // Interval k's samples all read 10 * (k + 1): p50 of 10, 20, 30, 40.
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t i = 0; i < kN; ++i) lat.add(k, static_cast<float>(10 * (k + 1)));
  }
  EXPECT_EQ(lat.tail().p50, 10.0);  // nearest rank ceil(0.25 * 4) = 1
  EXPECT_EQ(lat.tail().p99, 10.0);
  std::vector<double> kops = {5, 1, 9, 3, 7, 2, 10, 4, 8, 6};
  EXPECT_EQ(nearest_rank(kops, 1.0 - kCalmQuartile), 8.0);
}

TEST(IntervalLatencies, FallsBackToTheWholeWindowWhenIntervalsAreSparse) {
  IntervalLatencies lat(4);
  for (int i = 1; i <= 200; ++i) lat.add(static_cast<std::size_t>(i % 4), static_cast<float>(i));
  const Tail t = lat.tail();
  EXPECT_EQ(t.intervals, 0u);
  EXPECT_EQ(t.p99, 198.0);
  EXPECT_EQ(t.p95, 190.0);
  EXPECT_EQ(t.p90, 180.0);
  EXPECT_EQ(t.p50, 100.0);
}

TEST(IntervalLatencies, MergeKeepsIntervalsApart) {
  IntervalLatencies a(2);
  IntervalLatencies b(2);
  a.add(0, 1.0F);
  b.add(1, 3.0F);
  a.merge(b);
  EXPECT_EQ(a.tail().count, 2u);
}

TEST(Ratios, SpaceAmpAndErrorRate) {
  EXPECT_DOUBLE_EQ(space_amp(300, 100), 1.5);
  EXPECT_DOUBLE_EQ(space_amp(64, 0), 1.0);
  EXPECT_TRUE(std::isnan(space_amp(10, 10)));
  EXPECT_DOUBLE_EQ(error_rate(0, 1000), 0.0);
  EXPECT_DOUBLE_EQ(error_rate(5, 1000), 0.005);
  EXPECT_TRUE(std::isnan(error_rate(0, 0)));
}

const Mix kRmw{"test-rmw", 64, 0.0, 4, 0.0, 0.0, 8, 0};
const Mix kMixed{"test-mixed", 40, 0.99, 8, 0.5, 0.3, 100, 0};

TEST(OpStream, SameSeedSameStreamOtherSeedOrConnectionOther) {
  OpStream a(kMixed, 16, 7, 0, 2);
  OpStream b(kMixed, 16, 7, 0, 2);
  OpStream c(kMixed, 16, 8, 0, 2);
  OpStream d(kMixed, 16, 7, 1, 2);
  bool differs_seed = false;
  bool differs_conn = false;
  for (int i = 0; i < 2000; ++i) {
    const Op x = a.next();
    const Op y = b.next();
    const Op z = c.next();
    const Op w = d.next();
    ASSERT_EQ(x.kind, y.kind);
    ASSERT_EQ(x.blind, y.blind);
    ASSERT_EQ(x.client, y.client);
    ASSERT_EQ(x.key, y.key);
    ASSERT_LT(x.key, 20u);  // 40 keys over 2 connections
    differs_seed = differs_seed || x.key != z.key || x.kind != z.kind;
    differs_conn = differs_conn || x.key != w.key || x.kind != w.kind;
  }
  EXPECT_TRUE(differs_seed);
  EXPECT_TRUE(differs_conn);
}

TEST(OpStream, ReadModifyWriteMixIsHalfGetsAndEveryPutFollowsItsGet) {
  constexpr std::size_t kWindow = 8;
  OpStream s(kRmw, kWindow, 3, 0, 1);
  TokenBook<std::uint64_t> book(kWindow);
  std::size_t gets = 0;
  std::size_t puts = 0;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const Op op = s.next();
    EXPECT_FALSE(op.blind);
    if (op.kind == OpKind::kGet) {
      ++gets;
      book.record(i, op, i);
      continue;
    }
    ++puts;
    const std::uint64_t* source = book.token_for(i, op);
    ASSERT_NE(source, nullptr) << "an RMW PUT must find its GET";
    EXPECT_LE(*source + kWindow, i);
  }
  // Pairs still scheduled at the end keep the counts a little apart.
  EXPECT_NEAR(static_cast<double>(gets) / 10'000.0, 0.5, 0.01);
  EXPECT_GT(puts, 4'900u);
}

TEST(TokenBook, UsesTheNewestGetAtLeastOneWindowOld) {
  TokenBook<std::uint64_t> book(4);
  const Op get{OpKind::kGet, false, 1, 9};
  const Op other_client{OpKind::kGet, false, 2, 9};
  const Op put{OpKind::kPut, false, 1, 9};
  book.record(0, get, 100);
  book.record(1, other_client, 101);
  book.record(3, get, 103);
  // At index 4 only op 0 is a window old.
  ASSERT_NE(book.token_for(4, put), nullptr);
  EXPECT_EQ(*book.token_for(4, put), 100u);
  // At index 7 op 3 is exactly a window old and newer than op 0.
  EXPECT_EQ(*book.token_for(7, put), 103u);
  // Another client's GET of the key is never used.
  const Op put3{OpKind::kPut, false, 3, 9};
  EXPECT_EQ(book.token_for(7, put3), nullptr);
  // A blind PUT carries nothing.
  const Op blind{OpKind::kPut, true, 1, 9};
  EXPECT_EQ(book.token_for(7, blind), nullptr);
}

TEST(TokenBook, TooRecentGetIsNotUsed) {
  TokenBook<std::uint64_t> book(4);
  const Op get{OpKind::kGet, false, 0, 1};
  const Op put{OpKind::kPut, false, 0, 1};
  book.record(5, get, 5);
  EXPECT_EQ(book.token_for(8, put), nullptr);
  EXPECT_EQ(*book.token_for(9, put), 5u);
}

TEST(StreamHash, DeterministicAndSensitiveToSeedAndWindow) {
  const std::uint64_t h = stream_hash(kMixed, 16, 11, 2, 5'000);
  EXPECT_EQ(h, stream_hash(kMixed, 16, 11, 2, 5'000));
  EXPECT_NE(h, stream_hash(kMixed, 16, 12, 2, 5'000));
  EXPECT_NE(h, stream_hash(kMixed, 8, 11, 2, 5'000));
  EXPECT_NE(h, stream_hash(kMixed, 16, 11, 2, 4'999));
}

TEST(Names, KeysPartitionTheKeyspaceAndValuesArePadded) {
  EXPECT_EQ(key_name(2, 0, 0), "key-0");
  EXPECT_EQ(key_name(2, 1, 0), "key-1");
  EXPECT_EQ(key_name(2, 1, 5), "key-11");
  EXPECT_EQ(value_for(1, 42, 16), "v1.42...........");
  EXPECT_EQ(value_for(1, 42, 16).size(), 16u);
  EXPECT_NE(value_for(0, 42, 16), value_for(1, 42, 16));
}

}  // namespace
}  // namespace perfbench

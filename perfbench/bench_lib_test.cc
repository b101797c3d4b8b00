#include "bench_lib.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "util/status.h"

namespace goalrec::perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> values;
  for (size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_DOUBLE_EQ(Percentile(OneTo(100), 50), 50);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(100), 99), 99);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(1000), 99), 990);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(1000), 99.9), 999);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(7), 100), 7);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0);
}

TEST(PercentileTest, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
}

TEST(PercentileTest, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(99), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
}

TEST(PercentileTest, WindowedIgnoresOneBurstWindow) {
  // 5,000 samples in five windows of 1,000; one window is a burst.
  std::vector<double> samples(5000, 1.0);
  for (size_t i = 2000; i < 3000; ++i) samples[i] = 100.0;
  EXPECT_DOUBLE_EQ(Percentile(samples, 99), 100.0);
  EXPECT_DOUBLE_EQ(WindowedPercentile(samples, 99, 5), 1.0);
}

TEST(PercentileTest, WindowsKeepTenSamplesBeyond) {
  // 3,000 samples leave room for three p99 windows of 1,000, not seven.
  std::vector<double> samples;
  for (double level : {1.0, 2.0, 3.0}) {
    samples.insert(samples.end(), 1000, level);
  }
  EXPECT_DOUBLE_EQ(WindowedPercentile(samples, 99, 7), 2.0);
  // Too few for two windows: the plain percentile.
  EXPECT_DOUBLE_EQ(WindowedPercentile(OneTo(1500), 99, 7),
                   Percentile(OneTo(1500), 99));
  EXPECT_DOUBLE_EQ(WindowedPercentile({}, 50, 7), 0);
}

serve::ServeResult ResultWith(std::vector<serve::RungOutcome> outcomes) {
  serve::ServeResult result;
  for (serve::RungOutcome outcome : outcomes) {
    serve::RungReport rung;
    rung.outcome = outcome;
    result.rungs.push_back(rung);
  }
  return result;
}

TEST(ClassifyTest, EmptyFallThroughIsHealthy) {
  using O = serve::RungOutcome;
  util::StatusOr<serve::ServeResult> served = ResultWith({O::kServed});
  EXPECT_EQ(Classify(served), QueryOutcome::kHealthy);
  util::StatusOr<serve::ServeResult> fell =
      ResultWith({O::kEmpty, O::kEmpty, O::kServed});
  EXPECT_EQ(Classify(fell), QueryOutcome::kHealthy);
}

TEST(ClassifyTest, DeadlineErrorAndBreakerAreLostRungs) {
  using O = serve::RungOutcome;
  for (O lost : {O::kDeadlineExceeded, O::kError, O::kBreakerOpen}) {
    util::StatusOr<serve::ServeResult> result =
        ResultWith({lost, O::kServed});
    EXPECT_EQ(Classify(result), QueryOutcome::kLostRung);
    EXPECT_FALSE(IsGood(Classify(result), 1.0, 1000.0));
  }
}

TEST(ClassifyTest, ShedAndFailedQueriesAreBad) {
  util::StatusOr<serve::ServeResult> shed(
      util::Status(util::StatusCode::kResourceExhausted, "shed"));
  EXPECT_EQ(Classify(shed), QueryOutcome::kFailed);
  EXPECT_FALSE(IsGood(Classify(shed), 1.0, 1000.0));
  util::StatusOr<serve::ServeResult> failed(
      util::Status(util::StatusCode::kUnavailable, "every rung failed"));
  EXPECT_EQ(Classify(failed), QueryOutcome::kFailed);
}

TEST(ClassifyTest, GoodNeedsTheLatencyLimit) {
  EXPECT_TRUE(IsGood(QueryOutcome::kHealthy, 999.0, 1000.0));
  EXPECT_TRUE(IsGood(QueryOutcome::kHealthy, 1000.0, 1000.0));
  EXPECT_FALSE(IsGood(QueryOutcome::kHealthy, 1000.5, 1000.0));
}

TEST(PoissonScheduleTest, SameSeedSameScheduleOtherSeedOther) {
  std::vector<int64_t> a = PoissonSchedule(1000.0, 2.0, 7);
  std::vector<int64_t> b = PoissonSchedule(1000.0, 2.0, 7);
  std::vector<int64_t> c = PoissonSchedule(1000.0, 2.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PoissonScheduleTest, RateAndOrder) {
  std::vector<int64_t> schedule = PoissonSchedule(1000.0, 10.0, 3);
  // 10,000 expected arrivals; the count's standard deviation is 100.
  EXPECT_GT(schedule.size(), 9500u);
  EXPECT_LT(schedule.size(), 10500u);
  EXPECT_TRUE(std::is_sorted(schedule.begin(), schedule.end()));
  EXPECT_LT(schedule.back(), 10'000'000'000);
}

TEST(OpenLoopTest, LatencyRunsFromTheScheduledSend) {
  // Three arrivals due at once on one worker, each taking 20 ms: the third
  // waits for the first two, and its latency must include that wait.
  const std::vector<int64_t> schedule = {0, 0, 0};
  OpenLoopResult result = RunOpenLoop(schedule, 1, [](size_t, size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  ASSERT_EQ(result.latency_us.size(), 3u);
  EXPECT_GE(result.latency_us[0], 20e3);
  EXPECT_GE(result.latency_us[1], 40e3);
  EXPECT_GE(result.latency_us[2], 60e3);
  EXPECT_GE(result.start_delay_us[2], 40e3);
  EXPECT_FALSE(result.found_idle_worker[2]);
}

TEST(OpenLoopTest, IdleWorkersStartOnTime) {
  // Arrivals 50 ms apart on two workers: a worker waiting for an arrival
  // starts it at its scheduled send, so only the generator's own lag
  // separates the two.
  const std::vector<int64_t> schedule = {0, 50'000'000, 100'000'000};
  OpenLoopResult result = RunOpenLoop(schedule, 2, [](size_t, size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  size_t idle = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_GE(result.latency_us[i], 1e3);
    if (!result.found_idle_worker[i]) continue;
    ++idle;
    EXPECT_GE(result.start_delay_us[i], 0.0);
    EXPECT_LT(result.start_delay_us[i], 5e3);
  }
  EXPECT_GE(idle, 1u);
}

TEST(SpanTest, SelfTimeSubtractsChildCoverage) {
  std::vector<Span> spans(4);
  spans[0] = {"root", 0, 100, -1, 1};
  spans[1] = {"a", 10, 30, 0, 1};
  spans[2] = {"b", 20, 50, 0, 1};  // overlaps a: covered union is 10..50
  spans[3] = {"leaf", 25, 35, 2, 1};
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 10);
}

TEST(SpanTest, RecorderNestsAndDiscards) {
  SpanRecorder recorder;
  const int32_t root = recorder.Begin("root", -1, 9);
  Traced(&recorder, "child", root, 9, [] { return 0; });
  recorder.End(root);
  ASSERT_EQ(recorder.spans().size(), 2u);
  EXPECT_EQ(recorder.spans()[1].parent, root);
  EXPECT_EQ(recorder.spans()[1].query_id, 9u);
  EXPECT_LE(recorder.spans()[0].start_ns, recorder.spans()[1].start_ns);
  EXPECT_GE(recorder.spans()[0].end_ns, recorder.spans()[1].end_ns);
  recorder.Discard(root);
  EXPECT_TRUE(recorder.spans().empty());
  EXPECT_EQ(Traced(nullptr, "untraced", -1, 0, [] { return 5; }), 5);
}

}  // namespace
}  // namespace goalrec::perfbench

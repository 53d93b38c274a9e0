// Tests of the benchmark's own code: percentiles, schedules, open-loop
// timing, span arithmetic and the per-build facts. Run with
// `python3 perfbench/run.py --selftest` (it runs in the build directory).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "report.h"
#include "schedule.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(nearest_rank(50, 20), 10u);
  EXPECT_EQ(nearest_rank(75, 40), 30u);
  EXPECT_EQ(nearest_rank(75, 41), 31u);
  EXPECT_EQ(nearest_rank(100, 7), 7u);
  EXPECT_DOUBLE_EQ(percentile(one_to(20), 50, "x"), 10.0);
  EXPECT_DOUBLE_EQ(percentile(one_to(40), 75, "x"), 30.0);
  // Order of the input does not matter.
  auto shuffled = one_to(40);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_DOUBLE_EQ(percentile(shuffled, 75, "x"), 30.0);
}

TEST(Percentile, RefusesWithoutTenSamplesBeyond) {
  EXPECT_EQ(min_samples_for(50), 20u);
  EXPECT_EQ(min_samples_for(75), 40u);
  EXPECT_EQ(min_samples_for(95), 200u);
  EXPECT_EQ(min_samples_for(99), 1000u);
  EXPECT_THROW(percentile(one_to(19), 50, "x"), TooFewSamples);
  EXPECT_THROW(percentile(one_to(39), 75, "x"), TooFewSamples);
  EXPECT_THROW(percentile(one_to(999), 99, "x"), TooFewSamples);
  EXPECT_THROW(percentile({}, 50, "x"), TooFewSamples);
  EXPECT_NO_THROW(percentile(one_to(1000), 99, "x"));
}

TEST(Schedule, PoissonIsSeededAndIncreasing) {
  const auto a = poisson_schedule(7, 2.0, 500);
  const auto b = poisson_schedule(7, 2.0, 500);
  const auto c = poisson_schedule(8, 2.0, 500);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  // 500 exponential gaps at 2/s: mean gap 0.5 s, standard error ~0.022 s.
  EXPECT_NEAR(a.back() / 500.0, 0.5, 0.1);
}

/// A clock that only moves when told: calls advance it by their cost.
class FakeClock : public Clock {
 public:
  double now() override { return t_; }
  void sleep_until(double t) override { t_ = std::max(t_, t); }
  void advance(double dt) { t_ += dt; }

 private:
  double t_ = 100.0;
};

TEST(OpenLoop, TimesFromDueSoAStallDelaysLaterCalls) {
  FakeClock clock;
  const std::vector<double> offsets = {0.0, 0.1, 0.2, 0.3, 1.0};
  std::vector<CallTiming> timings;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    timings.push_back(timed_call(clock, 100.0 + offsets[i], [&] {
      clock.advance(i == 1 ? 0.5 : 0.01);  // call 1 stalls for half a second
      return true;
    }));
  }
  EXPECT_NEAR(timings[0].latency(), 0.01, 1e-12);
  EXPECT_NEAR(timings[1].latency(), 0.5, 1e-12);
  // Calls 2 and 3 were due during the stall: they start late and their
  // latency counts the wait from their due time.
  EXPECT_NEAR(timings[2].lag(), 0.4, 1e-12);
  EXPECT_NEAR(timings[2].latency(), 0.41, 1e-12);
  EXPECT_NEAR(timings[3].lag(), 0.31, 1e-12);
  EXPECT_NEAR(timings[3].latency(), 0.32, 1e-12);
  // The generator caught up before call 4 was due.
  EXPECT_NEAR(timings[4].lag(), 0.0, 1e-12);
  EXPECT_NEAR(timings[4].latency(), 0.01, 1e-12);
}

TEST(OpenLoop, AThrowingCallCountsAsFailed) {
  FakeClock clock;
  const auto timing = timed_call(clock, 100.0, [&]() -> bool {
    clock.advance(0.2);
    throw std::runtime_error("connection refused");
  });
  EXPECT_FALSE(timing.ok);
  EXPECT_NEAR(timing.latency(), 0.2, 1e-12);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer tracer(true, 0);
  const int root = tracer.open("root", -1, 0.0);
  tracer.add("a", 1, 1.0, 3.0);
  tracer.add("b", 2, 2.0, 5.0);  // overlaps a: the union counts once
  const int c = tracer.open("c", 3, 8.0);
  tracer.add("grandchild", 4, 8.5, 9.0);
  tracer.close(c, 12.0);  // runs past the root's end: clipped to it
  tracer.close(root, 10.0);
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_DOUBLE_EQ(self_seconds(spans, 0), 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self_seconds(spans, 1), 2.0);
  EXPECT_DOUBLE_EQ(self_seconds(spans, 3), 4.0 - 0.5);  // only its own child counts

  const auto rows = layer_table({spans});
  double self_total = 0.0;
  for (const auto& row : rows) self_total += row.self_s;
  // Self times partition the root, except where siblings overlap (a and b
  // share 1 s) or a child outlives it (c by 2 s).
  EXPECT_DOUBLE_EQ(self_total, 10.0 + 1.0 + 2.0);
}

TEST(Spans, SpansSinceDropsEarlierSpansAndCutsTheirLinks) {
  Tracer tracer(true, 0);
  const int early = tracer.open("early", -1, 0.0);
  tracer.add("late_child", 1, 6.0, 7.0);  // child of a span that started too early
  tracer.close(early, 8.0);
  const int late = tracer.open("late", 2, 9.0);
  tracer.add("grandchild", 3, 9.5, 9.8);
  tracer.close(late, 10.0);
  const auto kept = spans_since(tracer.spans(), 5.0);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].name, "late_child");
  EXPECT_EQ(kept[0].parent, -1);
  EXPECT_EQ(kept[1].name, "late");
  EXPECT_EQ(kept[2].parent, 1);
}

TEST(Spans, DisabledTracerRecordsNothing) {
  Tracer tracer(false, 0);
  { ScopedSpan span(tracer, "x"); }
  tracer.add("y", 0, 0.0, 1.0);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Spans, ClosingAnOuterSpanFirstIsAnError) {
  Tracer tracer(true, 0);
  const int outer = tracer.open("outer", -1, 0.0);
  tracer.open("inner", -1, 1.0);
  EXPECT_THROW(tracer.close(outer, 2.0), std::logic_error);
}

TEST(Report, ResultLineCarriesEveryDigit) {
  Report report;
  report.metric("latency_ms", 1.0 / 3.0, "ms");
  report.attempt(true);
  report.attempt(false);
  EXPECT_FALSE(report.correct());
  EXPECT_EQ(report.json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": "
            "{\"latency_ms\": {\"value\": 0.33333333333333331, \"unit\": \"ms\"}}}");
}

TEST(Facts, RepeatRunsOfOneBuildMustMatchAndAnotherBuildStartsFresh) {
  const std::string dir = "selftest-facts";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto run = [&](const std::string& build, const std::string& digest) {
    const Options options{.workload = "train", .seed = 7, .out_dir = dir, .build_id = build};
    Report report;
    Facts facts(options, "r40");
    facts.expect(report, "final_state_digest", digest);
    facts.save(report);
    return report.correct();
  };
  EXPECT_TRUE(run("build-a", "0123"));   // first run of build-a records the digest
  EXPECT_TRUE(run("build-a", "0123"));   // and a repeat reproduces it
  EXPECT_FALSE(run("build-a", "4567"));  // a different digest from build-a fails
  EXPECT_TRUE(run("build-b", "4567"));   // another build does not reuse build-a's facts
  EXPECT_TRUE(run("build-b", "4567"));
  EXPECT_TRUE(run("build-a", "0123"));   // and leaves them as they were
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfbench

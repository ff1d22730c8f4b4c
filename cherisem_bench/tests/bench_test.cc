/**
 * @file
 * Unit tests of cherisem-bench's own measurement code: the tail
 * percentile rule, open-loop timing from due times, and span self
 * time.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "openloop.h"
#include "spans.h"
#include "stats.h"

namespace bench {
namespace {

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(101 - i); // unsorted on purpose
    EXPECT_EQ(percentile(v, 50), 50);
    EXPECT_EQ(percentile(v, 99), 99);
    EXPECT_EQ(percentile(v, 100), 100);
    EXPECT_EQ(percentile(v, 0.5), 1);
    EXPECT_EQ(percentile({}, 50), 0);
    EXPECT_EQ(median({3, 1, 2}), 2);
}

TEST(Percentile, SamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(1000, 99), 10u);
    EXPECT_EQ(samplesBeyond(1000, 99.9), 1u);
    EXPECT_EQ(samplesBeyond(999, 99), 9u);
    EXPECT_EQ(samplesBeyond(20, 50), 10u);
    EXPECT_EQ(samplesBeyond(5, 100), 0u);
}

TEST(Percentile, TailIsHighestWithTenBeyond)
{
    EXPECT_EQ(tailPercentile(1000), 99);
    EXPECT_EQ(tailPercentile(999), 98);
    EXPECT_EQ(tailPercentile(2000), 99.5);
    EXPECT_EQ(tailPercentile(10000), 99.9);
    EXPECT_EQ(tailPercentile(100000), 99.99);
    EXPECT_EQ(tailPercentile(300), 95);
    EXPECT_EQ(tailPercentile(20), 50);
    EXPECT_FALSE(tailPercentile(19).has_value());
    // Whatever the count, the chosen percentile leaves >= 10 beyond
    // and the next rung up would not.
    for (size_t n = 20; n < 5000; n += 7) {
        double p = *tailPercentile(n);
        EXPECT_GE(samplesBeyond(n, p), kTailBeyond) << n;
    }
    EXPECT_EQ(percentileName(99), "p99");
    EXPECT_EQ(percentileName(99.5), "p99.5");
}

TEST(Quietest, KeepsEachUnitsFastestTenth)
{
    // Unit 0 ran 20 times, unit 1 ran 10 times; interference inflated
    // some repeats.  Each unit keeps ceil(0.1 * n) of its fastest.
    std::vector<double> u0, u1;
    for (int i = 0; i < 20; ++i)
        u0.push_back(i % 5 == 0 ? 1.0 + i * 0.01 : 3.0 + i);
    for (int i = 0; i < 10; ++i)
        u1.push_back(10.0 - i);
    std::vector<double> q = quietest({u0, u1});
    std::sort(q.begin(), q.end());
    EXPECT_EQ(q, (std::vector<double>{1.0, 1.0, 1.05}));
    // A unit with fewer than ten repeats still contributes one.
    EXPECT_EQ(quietest({{5.0, 4.0}}), (std::vector<double>{4.0}));
    EXPECT_TRUE(quietest({}).empty());
}

TEST(OpenLoop, ScheduleIsSeededPoisson)
{
    std::vector<int64_t> a = poissonSchedule(1000, 5000, 42);
    EXPECT_EQ(a, poissonSchedule(1000, 5000, 42));
    EXPECT_NE(a, poissonSchedule(1000, 5000, 43));
    for (size_t i = 1; i < a.size(); ++i)
        ASSERT_GE(a[i], a[i - 1]);
    // Mean gap 1 ms, within 5% over 5000 arrivals.
    double meanGapMs = a.back() / 1e6 / a.size();
    EXPECT_NEAR(meanGapMs, 1.0, 0.05);
}

TEST(OpenLoop, LatencyCountsFromDueTimeAcrossAStall)
{
    // Four requests due 1 ms apart; the first send blocks for 30 ms,
    // as a full server queue would.  The later requests are sent late,
    // and timing from their due time charges them the stall.
    std::vector<int64_t> due = {0, 1'000'000, 2'000'000, 3'000'000};
    std::vector<int64_t> sent;
    std::vector<int64_t> done(due.size());
    int64_t t0 = nowNs() + 1'000'000;
    size_t prepared = 0;
    runOpenLoop(
        due, t0, &sent, [&](size_t) { ++prepared; },
        [&](size_t i) {
            if (i == 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(30));
            done[i] = nowNs();
        });
    EXPECT_EQ(prepared, due.size());
    for (size_t i = 0; i < due.size(); ++i)
        EXPECT_GE(sent[i], t0 + due[i]) << "sent before due: " << i;
    for (size_t i = 1; i < due.size(); ++i) {
        double late = sinceDueMs(due, t0, i, sent[i]);
        EXPECT_GE(late, 30.0 - i - 0.5) << i;
        EXPECT_GE(sinceDueMs(due, t0, i, done[i]), late);
        // Timed from the send instead, the stall would vanish.
        EXPECT_LT((done[i] - sent[i]) / 1e6, 5.0);
    }
}

TEST(Spans, SelfTimeSubtractsDirectChildren)
{
    SpanRecorder rec;
    uint32_t req = rec.layer("request");
    uint32_t a = rec.layer("a");
    uint32_t b = rec.layer("b");
    uint32_t c = rec.layer("c");
    uint32_t root = rec.add(req, 0, Span::kNoParent, 0, 100);
    rec.add(a, 0, root, 10, 40);
    uint32_t bi = rec.add(b, 0, root, 50, 90);
    rec.add(c, 0, bi, 60, 70);
    // A second request: only the root and one child.
    uint32_t root2 = rec.add(req, 1, Span::kNoParent, 200, 260);
    rec.add(a, 1, root2, 200, 250);

    std::map<std::string, LayerTime> t = rec.layerTimes();
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t["request"].spans, 2u);
    EXPECT_EQ(t["request"].totalNs, 160);
    EXPECT_EQ(t["request"].selfNs, 30 + 10);
    EXPECT_EQ(t["a"].selfNs, 30 + 50);
    EXPECT_EQ(t["b"].totalNs, 40);
    EXPECT_EQ(t["b"].selfNs, 30);
    EXPECT_EQ(t["c"].selfNs, 10);
    // Self times partition the root spans exactly.
    int64_t self = 0;
    for (const auto &[name, lt] : t)
        self += lt.selfNs;
    EXPECT_EQ(self, t["request"].totalNs);
}

TEST(Spans, ScopedSpansNestAndWriteChromeTrace)
{
    SpanRecorder rec;
    uint32_t outer = rec.layer("outer");
    uint32_t inner = rec.layer("inner");
    for (uint64_t r = 0; r < 3; ++r) {
        ScopedSpan o(&rec, outer, r);
        ScopedSpan i(&rec, inner, r, o.index());
    }
    ASSERT_EQ(rec.spans().size(), 6u);
    for (const Span &s : rec.spans())
        EXPECT_LE(s.startNs, s.endNs);
    EXPECT_EQ(rec.spans()[1].parent, 0u);

    std::string path = "bench_test_trace.json";
    ASSERT_TRUE(rec.writeChromeTrace(path, 2));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::string json = text.str();
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    size_t events = 0;
    for (size_t p = json.find("\"ph\":\"X\""); p != std::string::npos;
         p = json.find("\"ph\":\"X\"", p + 1))
        ++events;
    EXPECT_EQ(events, 4u); // requests 0 and 1 only
    std::remove(path.c_str());
}

} // namespace
} // namespace bench

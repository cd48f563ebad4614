/**
 * @file
 * Tests of the telemetry subsystem: log2-histogram bucket boundaries,
 * snapshot merge associativity, quantile estimation, registry
 * round-trips, the per-cycle sampled span the overhead gate prices,
 * scoped-span nesting and thread-track integrity of the Chrome trace
 * serialization, heartbeat record formatting, and the
 * heartbeat emitter's timing/monotonicity guarantees.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/poc_suite.hh"
#include "harness/dualsim.hh"
#include "obs/heartbeat.hh"
#include "obs/telemetry.hh"
#include "report/json.hh"
#include "uarch/config.hh"

namespace dejavuzz {
namespace {

using obs::Ctr;
using obs::Gauge;
using obs::Hist;
using obs::HistSnapshot;
using obs::TelemetrySnapshot;
using obs::TraceEvent;

// --- Histogram shape ----------------------------------------------------

TEST(ObsHistogram, BucketBoundariesArePowersOfTwo)
{
    // Bucket 0 holds only zero; bucket b holds [2^(b-1), 2^b).
    EXPECT_EQ(obs::histBucket(0), 0u);
    EXPECT_EQ(obs::histBucket(1), 1u);
    EXPECT_EQ(obs::histBucket(2), 2u);
    EXPECT_EQ(obs::histBucket(3), 2u);
    EXPECT_EQ(obs::histBucket(4), 3u);
    EXPECT_EQ(obs::histBucket(1023), 10u);
    EXPECT_EQ(obs::histBucket(1024), 11u);

    // The top bucket absorbs everything from 2^62 upward.
    EXPECT_EQ(obs::histBucket(uint64_t{1} << 61), 62u);
    EXPECT_EQ(obs::histBucket(uint64_t{1} << 62), 63u);
    EXPECT_EQ(obs::histBucket(~uint64_t{0}), 63u);
}

TEST(ObsHistogram, BucketLowRoundTrips)
{
    for (unsigned b = 0; b < obs::kHistBuckets; ++b) {
        EXPECT_EQ(obs::histBucket(obs::histBucketLow(b)), b);
        // One below the lower bound lands in the previous bucket.
        if (b >= 2) {
            EXPECT_EQ(obs::histBucket(obs::histBucketLow(b) - 1),
                      b - 1);
        }
    }
}

/** Record into a local snapshot the way histRecord records into the
 *  registry: count += w, sum += v*w, bucket(v) += w. */
void
recordInto(HistSnapshot &h, uint64_t value, uint64_t weight = 1)
{
    h.count += weight;
    h.sum += value * weight;
    h.buckets[obs::histBucket(value)] += weight;
}

TEST(ObsHistogram, MergeIsAssociativeAndCommutative)
{
    HistSnapshot a, b, c;
    recordInto(a, 0);
    recordInto(a, 17, 3);
    recordInto(b, 1 << 20);
    recordInto(b, 5);
    recordInto(c, ~uint64_t{0});
    recordInto(c, 64, 64);

    HistSnapshot ab_c = a;
    ab_c.merge(b);
    ab_c.merge(c);

    HistSnapshot bc = b;
    bc.merge(c);
    HistSnapshot a_bc = a;
    a_bc.merge(bc);

    HistSnapshot cba = c;
    cba.merge(b);
    cba.merge(a);

    for (const HistSnapshot *m : {&a_bc, &cba}) {
        EXPECT_EQ(ab_c.count, m->count);
        EXPECT_EQ(ab_c.sum, m->sum);
        for (unsigned i = 0; i < obs::kHistBuckets; ++i)
            EXPECT_EQ(ab_c.buckets[i], m->buckets[i]);
    }
}

TEST(ObsHistogram, QuantileLowFindsBucketLowerBounds)
{
    HistSnapshot h;
    EXPECT_EQ(h.quantileLow(0.5), 0u) << "empty histogram";

    recordInto(h, 0);
    recordInto(h, 1);
    recordInto(h, 100, 98);
    // 100 observations: one 0, one 1, 98 in [64, 128).
    EXPECT_EQ(h.quantileLow(0.0), 0u);
    EXPECT_EQ(h.quantileLow(0.5), 64u);
    EXPECT_EQ(h.quantileLow(0.99), 64u);
    EXPECT_EQ(h.quantileLow(1.0), 64u);
}

// --- Registry round-trips ----------------------------------------------

TEST(ObsRegistry, CountersGaugesHistogramsRoundTrip)
{
    obs::resetForTest();
    obs::counterAdd(Ctr::Rollbacks, 3);
    obs::counterAdd(Ctr::Rollbacks);
    obs::gaugeSet(Gauge::Workers, 5);
    obs::histRecord(Hist::DequeDepth, 4, 2);

    const TelemetrySnapshot snap = obs::snapshot();
    EXPECT_EQ(snap.counter(Ctr::Rollbacks), 4u);
    EXPECT_EQ(snap.counter(Ctr::Iterations), 0u);
    EXPECT_EQ(snap.gauge(Gauge::Workers), 5u);
    const HistSnapshot &h = snap.hist(Hist::DequeDepth);
    EXPECT_EQ(h.count, 2u);
    EXPECT_EQ(h.sum, 8u);
    EXPECT_EQ(h.buckets[obs::histBucket(4)], 2u);
    obs::resetForTest();
}

TEST(ObsRegistry, SampledSpanKeepsTotalsUnbiased)
{
    obs::resetForTest();
    // Fresh thread => fresh thread-local sampling phase: exactly
    // 2 of 128 constructions time themselves, each recorded with
    // weight 64, so the count estimates the true call total.
    std::thread([] {
        for (int i = 0; i < 128; ++i)
            obs::SampledSpan span(Hist::ModuleTaintNs);
    }).join();
    const TelemetrySnapshot snap = obs::snapshot();
    EXPECT_EQ(snap.hist(Hist::ModuleTaintNs).count, 128u);
    obs::resetForTest();
}

TEST(ObsRegistry, TaintLogRunsOneSampledSpanPerCycle)
{
    // The telemetry overhead gate (scripts/telemetry_gate.py) prices
    // the SampledSpan in DualSim::laneTick as one call per taint-log
    // tick of lane 0, read from this histogram's weighted count. If
    // the span moves or goes, the gate's numerator reads zero; this
    // fails instead. Sampling rounds the count to the period.
    const auto cfg = uarch::smallBoomConfig();
    for (const auto &poc : bench::pocSuite()) {
        for (bool taint_log : {true, false}) {
            harness::DualSim sim(cfg);
            harness::SimOptions options;
            options.mode = ift::IftMode::DiffIFT;
            options.taint_log = taint_log;
            const uint64_t before =
                obs::snapshot().hist(Hist::ModuleTaintNs).count;
            const auto result =
                sim.runDual(poc.schedule, poc.data, options);
            const uint64_t added =
                obs::snapshot().hist(Hist::ModuleTaintNs).count - before;
            SCOPED_TRACE(poc.name + (taint_log ? " taint_log" : ""));
            ASSERT_GT(result.dut0.cycles, 0u);
            if (taint_log) {
                EXPECT_LE(added, result.dut0.cycles +
                                     obs::SampledSpan::kPeriod);
                EXPECT_GE(added + obs::SampledSpan::kPeriod,
                          result.dut0.cycles);
            } else {
                EXPECT_EQ(added, 0u);
            }
        }
    }
}

TEST(ObsTrace, SpansNestAndKeepTheirThreadTrack)
{
    obs::resetForTest();
    obs::enableTrace(true);
    std::thread([] {
        obs::setThreadTrack(3);
        {
            obs::ScopedSpan outer(Hist::Phase1Ns);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            obs::ScopedSpan inner(Hist::Phase2Ns);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        obs::drainThreadSpans();
    }).join();
    obs::enableTrace(false);

    std::vector<TraceEvent> events = obs::takeTraceEvents();
    ASSERT_EQ(events.size(), 2u);

    const TraceEvent *outer = nullptr, *inner = nullptr;
    for (const auto &e : events) {
        if (e.kind == Hist::Phase1Ns)
            outer = &e;
        else if (e.kind == Hist::Phase2Ns)
            inner = &e;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->track, 3u);
    EXPECT_EQ(inner->track, 3u);
    // Proper nesting: the inner span's interval lies inside the
    // outer's (Perfetto renders overlap-without-nesting as garbage).
    EXPECT_GE(inner->begin_ns, outer->begin_ns);
    EXPECT_LE(inner->begin_ns + inner->dur_ns,
              outer->begin_ns + outer->dur_ns);

    // The buffer was already drained.
    EXPECT_TRUE(obs::takeTraceEvents().empty());
    obs::resetForTest();
}

TEST(ObsTrace, DisabledTraceRecordsHistogramsOnly)
{
    obs::resetForTest();
    {
        obs::ScopedSpan span(Hist::Phase3Ns);
    }
    EXPECT_EQ(obs::snapshot().hist(Hist::Phase3Ns).count, 1u);
    EXPECT_TRUE(obs::takeTraceEvents().empty());
    obs::resetForTest();
}

// --- Chrome trace serialization -----------------------------------------

TEST(ObsTrace, ChromeTraceCarriesTracksAndArgs)
{
    std::vector<TraceEvent> events;
    events.push_back({Hist::BatchNs, 1, 1000, 500, 2, 7, true});
    events.push_back({Hist::Phase2Ns, 0, 1200, 100, 0, 0, false});

    std::ostringstream os;
    obs::writeChromeTrace(os, events);
    const std::string json = os.str();

    EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    // Track 0 is the main thread; executor t registers track t+1.
    EXPECT_NE(json.find("\"args\":{\"name\":\"main\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"name\":\"executor 0\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"batch\",\"ph\":\"X\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"phase2\",\"ph\":\"X\""),
              std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"shard\":2,\"batch\":7}"),
              std::string::npos);
    // Timestamps are microseconds (1000 ns -> 1.000 us).
    EXPECT_NE(json.find("\"ts\":1.000,\"dur\":0.500"),
              std::string::npos);
    EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
}

// --- Heartbeat records --------------------------------------------------

TEST(ObsHeartbeat, RecordFormatsAsFlatJson)
{
    TelemetrySnapshot snap;
    snap.counters[static_cast<unsigned>(Ctr::Iterations)] = 7;
    snap.counters[static_cast<unsigned>(Ctr::StealHits)] = 2;
    snap.gauges[static_cast<unsigned>(Gauge::Workers)] = 4;
    auto &batch =
        snap.hists[static_cast<unsigned>(Hist::BatchNs)];
    recordInto(batch, 1000, 3);

    const std::string line =
        obs::formatHeartbeatRecord(2, 1.5, snap);

    report::JsonObject obj;
    std::string error;
    ASSERT_TRUE(report::parseFlatJsonObject(line, obj, &error))
        << error;
    EXPECT_EQ(obj["type"].text, "heartbeat");
    EXPECT_DOUBLE_EQ(obj["seq"].number, 2.0);
    EXPECT_DOUBLE_EQ(obj["wall_seconds"].number, 1.5);
    EXPECT_DOUBLE_EQ(obj["iterations"].number, 7.0);
    EXPECT_DOUBLE_EQ(obj["steal_hits"].number, 2.0);
    EXPECT_DOUBLE_EQ(obj["workers"].number, 4.0);
    EXPECT_DOUBLE_EQ(obj["batch_ns_count"].number, 3.0);
    EXPECT_DOUBLE_EQ(obj["batch_ns_sum"].number, 3000.0);
    EXPECT_DOUBLE_EQ(obj["batch_p50_ns"].number,
                     static_cast<double>(
                         obs::histBucketLow(obs::histBucket(1000))));
    // Every instrument appears, even the zero-valued ones.
    for (unsigned i = 0; i < obs::kNumCtrs; ++i)
        EXPECT_TRUE(
            obj.count(obs::ctrName(static_cast<Ctr>(i))))
            << obs::ctrName(static_cast<Ctr>(i));
    for (unsigned i = 0; i < obs::kNumHists; ++i) {
        const std::string name =
            obs::histName(static_cast<Hist>(i));
        EXPECT_TRUE(obj.count(name + "_count")) << name;
        EXPECT_TRUE(obj.count(name + "_sum")) << name;
    }
}

TEST(ObsHeartbeat, EmitterProducesFinalRecordOnStop)
{
    std::vector<std::string> lines;
    {
        // Interval far beyond the test's lifetime: the only record
        // is the final one stop() emits, so even runs shorter than
        // the interval heartbeat at least once.
        obs::HeartbeatEmitter emitter(
            3600.0,
            [&lines](const std::string &line) {
                lines.push_back(line);
            });
        emitter.stop();
        emitter.stop(); // idempotent
    }
    ASSERT_EQ(lines.size(), 1u);
    report::JsonObject obj;
    ASSERT_TRUE(report::parseFlatJsonObject(lines[0], obj));
    EXPECT_DOUBLE_EQ(obj["seq"].number, 0.0);
}

TEST(ObsHeartbeat, EmitterStreamsMonotonicRecords)
{
    std::mutex mutex;
    std::vector<std::string> lines;
    {
        obs::HeartbeatEmitter emitter(
            0.005,
            [&mutex, &lines](const std::string &line) {
                std::lock_guard<std::mutex> lock(mutex);
                lines.push_back(line);
            });
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
    ASSERT_GE(lines.size(), 2u);
    double prev_seq = -1.0, prev_wall = -1.0;
    for (const auto &line : lines) {
        report::JsonObject obj;
        std::string error;
        ASSERT_TRUE(report::parseFlatJsonObject(line, obj, &error))
            << error;
        EXPECT_GT(obj["seq"].number, prev_seq);
        EXPECT_GE(obj["wall_seconds"].number, prev_wall);
        prev_seq = obj["seq"].number;
        prev_wall = obj["wall_seconds"].number;
    }
}

TEST(ObsHeartbeat, EmitterInactiveWithoutInterval)
{
    std::vector<std::string> lines;
    obs::HeartbeatEmitter emitter(
        0.0,
        [&lines](const std::string &line) {
            lines.push_back(line);
        });
    emitter.stop();
    EXPECT_TRUE(lines.empty());
}

} // namespace
} // namespace dejavuzz

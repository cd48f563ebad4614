#include "obs/telemetry.hh"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <set>
#include <string>

namespace dejavuzz::obs {

// --- Names ---------------------------------------------------------------

const char *
ctrName(Ctr c)
{
    switch (c) {
      case Ctr::Iterations: return "iterations";
      case Ctr::Batches: return "batches";
      case Ctr::Simulations: return "simulations";
      case Ctr::Rollbacks: return "rollbacks";
      case Ctr::RedoCycles: return "redo_cycles";
      case Ctr::Checkpoints: return "checkpoints";
      case Ctr::StealAttempts: return "steal_attempts";
      case Ctr::StealHits: return "steal_hits";
      case Ctr::TaintTransitions: return "taint_transitions";
      case Ctr::TaintRescanChecks: return "taint_rescan_checks";
      case Ctr::FusedLaneCycles: return "fused_lane_cycles";
      case Ctr::BatchRetries: return "batch_retries";
      case Ctr::BatchDeadlineKills: return "batch_deadline_kills";
      case Ctr::QuarantinedSeeds: return "quarantined_seeds";
      case Ctr::FaultsInjected: return "faults_injected";
      case Ctr::CheckpointGenerations:
          return "checkpoint_generations";
      case Ctr::kCount: break;
    }
    return "?";
}

const char *
gaugeName(Gauge g)
{
    switch (g) {
      case Gauge::CoveragePoints: return "coverage_points";
      case Gauge::DistinctBugs: return "distinct_bugs";
      case Gauge::CorpusSize: return "corpus_size";
      case Gauge::Epochs: return "epochs";
      case Gauge::Workers: return "workers";
      case Gauge::kCount: break;
    }
    return "?";
}

const char *
histName(Hist h)
{
    switch (h) {
      case Hist::BatchNs: return "batch_ns";
      case Hist::Phase1Ns: return "phase1_ns";
      case Hist::Phase2Ns: return "phase2_ns";
      case Hist::Phase3Ns: return "phase3_ns";
      case Hist::RollbackNs: return "rollback_ns";
      case Hist::ModuleTaintNs: return "module_taint_ns";
      case Hist::ReplayNs: return "replay_ns";
      case Hist::DequeDepth: return "deque_depth";
      case Hist::VictimScan: return "victim_scan";
      case Hist::kCount: break;
    }
    return "?";
}

const char *
spanName(Hist h)
{
    switch (h) {
      case Hist::BatchNs: return "batch";
      case Hist::Phase1Ns: return "phase1";
      case Hist::Phase2Ns: return "phase2";
      case Hist::Phase3Ns: return "phase3";
      case Hist::RollbackNs: return "rollback";
      case Hist::ModuleTaintNs: return "module_taint";
      case Hist::ReplayNs: return "replay";
      default: break;
    }
    return histName(h);
}

// --- Histogram snapshots -------------------------------------------------

void
HistSnapshot::merge(const HistSnapshot &other)
{
    count += other.count;
    sum += other.sum;
    for (unsigned b = 0; b < kHistBuckets; ++b)
        buckets[b] += other.buckets[b];
}

uint64_t
HistSnapshot::quantileLow(double q) const
{
    if (count == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank of the q-quantile observation, 1-based.
    uint64_t rank = static_cast<uint64_t>(q * (count - 1)) + 1;
    uint64_t seen = 0;
    for (unsigned b = 0; b < kHistBuckets; ++b) {
        seen += buckets[b];
        if (seen >= rank)
            return histBucketLow(b);
    }
    return histBucketLow(kHistBuckets - 1);
}

// --- Timebase ------------------------------------------------------------

namespace {

using SteadyClock = std::chrono::steady_clock;

/** Process-start reference, captured at static-init time. */
const SteadyClock::time_point g_epoch = SteadyClock::now();

} // namespace

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            SteadyClock::now() - g_epoch)
            .count());
}

#ifndef DEJAVUZZ_NO_TELEMETRY

// --- Registry storage ----------------------------------------------------

namespace detail {

std::atomic<uint64_t> g_counters[kNumCtrs];
std::atomic<uint64_t> g_gauges[kNumGauges];
std::atomic<bool> g_trace_enabled{false};
thread_local uint64_t t_sample_tick = 0;

namespace {

struct HistCells
{
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> buckets[kHistBuckets];
};

HistCells g_hists[kNumHists];

/** Per-thread staging buffer for trace events. */
thread_local std::vector<TraceEvent> t_span_buf;
thread_local uint32_t t_track = 0;

std::mutex g_trace_mutex;
std::vector<TraceEvent> g_trace_events;

/** Drop events beyond this many to bound memory on long campaigns. */
constexpr size_t kMaxTraceEvents = size_t{1} << 20;

} // namespace

void
histRecordSlow(Hist h, uint64_t value, uint64_t weight)
{
    auto &cells = g_hists[static_cast<unsigned>(h)];
    cells.count.fetch_add(weight, std::memory_order_relaxed);
    cells.sum.fetch_add(value * weight, std::memory_order_relaxed);
    cells.buckets[histBucket(value)].fetch_add(
        weight, std::memory_order_relaxed);
}

void
pushTraceEvent(Hist kind, uint64_t begin_ns, uint64_t dur_ns,
               uint64_t arg0, uint64_t arg1, bool has_args)
{
    t_span_buf.push_back(
        {kind, t_track, begin_ns, dur_ns, arg0, arg1, has_args});
}

} // namespace detail

void
enableTrace(bool on)
{
    detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void
setThreadTrack(uint32_t track)
{
    detail::t_track = track;
}

void
drainThreadSpans()
{
    if (detail::t_span_buf.empty())
        return;
    std::lock_guard<std::mutex> lock(detail::g_trace_mutex);
    if (detail::g_trace_events.size() < detail::kMaxTraceEvents) {
        detail::g_trace_events.insert(detail::g_trace_events.end(),
                                      detail::t_span_buf.begin(),
                                      detail::t_span_buf.end());
    }
    detail::t_span_buf.clear();
}

std::vector<TraceEvent>
takeTraceEvents()
{
    drainThreadSpans();
    std::vector<TraceEvent> out;
    std::lock_guard<std::mutex> lock(detail::g_trace_mutex);
    out.swap(detail::g_trace_events);
    return out;
}

TelemetrySnapshot
snapshot()
{
    TelemetrySnapshot snap;
    for (unsigned i = 0; i < kNumCtrs; ++i)
        snap.counters[i] =
            detail::g_counters[i].load(std::memory_order_relaxed);
    for (unsigned i = 0; i < kNumGauges; ++i)
        snap.gauges[i] =
            detail::g_gauges[i].load(std::memory_order_relaxed);
    for (unsigned i = 0; i < kNumHists; ++i) {
        auto &cells = detail::g_hists[i];
        auto &h = snap.hists[i];
        h.count = cells.count.load(std::memory_order_relaxed);
        h.sum = cells.sum.load(std::memory_order_relaxed);
        for (unsigned b = 0; b < kHistBuckets; ++b)
            h.buckets[b] =
                cells.buckets[b].load(std::memory_order_relaxed);
    }
    return snap;
}

void
resetForTest()
{
    for (unsigned i = 0; i < kNumCtrs; ++i)
        detail::g_counters[i].store(0, std::memory_order_relaxed);
    for (unsigned i = 0; i < kNumGauges; ++i)
        detail::g_gauges[i].store(0, std::memory_order_relaxed);
    for (unsigned i = 0; i < kNumHists; ++i) {
        auto &cells = detail::g_hists[i];
        cells.count.store(0, std::memory_order_relaxed);
        cells.sum.store(0, std::memory_order_relaxed);
        for (unsigned b = 0; b < kHistBuckets; ++b)
            cells.buckets[b].store(0, std::memory_order_relaxed);
    }
    detail::t_span_buf.clear();
    std::lock_guard<std::mutex> lock(detail::g_trace_mutex);
    detail::g_trace_events.clear();
}

#else // DEJAVUZZ_NO_TELEMETRY

TelemetrySnapshot
snapshot()
{
    return {};
}

void
resetForTest()
{
}

#endif // DEJAVUZZ_NO_TELEMETRY

// --- Chrome trace-event serialization ------------------------------------

void
writeChromeTrace(std::ostream &os,
                 const std::vector<TraceEvent> &events)
{
    os << "{\"traceEvents\":[";
    bool first = true;
    char buf[256];

    std::set<uint32_t> tracks;
    for (const auto &e : events)
        tracks.insert(e.track);
    for (uint32_t track : tracks) {
        // Executor threads register as track t+1 (track 0 is main),
        // so track N carries worker N-1's batches.
        std::string label =
            track == 0 ? "main"
                       : "worker " + std::to_string(track - 1);
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"thread_name\",\"ph\":\"M\","
                      "\"pid\":1,\"tid\":%" PRIu32
                      ",\"args\":{\"name\":\"%s\"}}",
                      first ? "" : ",", track, label.c_str());
        os << buf;
        first = false;
    }

    for (const auto &e : events) {
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,"
                      "\"pid\":1,\"tid\":%" PRIu32,
                      first ? "" : ",", spanName(e.kind),
                      e.begin_ns / 1e3, e.dur_ns / 1e3, e.track);
        os << buf;
        first = false;
        if (e.has_args) {
            std::snprintf(buf, sizeof(buf),
                          ",\"args\":{\"shard\":%" PRIu64
                          ",\"batch\":%" PRIu64 "}",
                          e.arg0, e.arg1);
            os << buf;
        }
        os << "}";
    }
    os << "]}\n";
}

} // namespace dejavuzz::obs

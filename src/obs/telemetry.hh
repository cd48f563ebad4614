/**
 * @file
 * Process-wide telemetry registry: counters, gauges, log2-bucketed
 * latency histograms, and RAII scoped-span timers.
 *
 * The hot-path primitives (counterAdd, gaugeSet, histRecord,
 * ScopedSpan, SampledSpan) are single relaxed atomic operations on
 * fixed enum-indexed arrays -- no locks, no allocation, no string
 * lookup.  They are always compiled in.  Only SampledSpan runs once
 * per simulated cycle; the CI perf-smoke job prices every primitive
 * per DUT cycle in the Release build (bench_micro's
 * BM_TelemetryPrimitives times a call, bench_dualsim counts the calls)
 * and scripts/telemetry_gate.py fails it above 2% of a DUT cycle.
 *
 * Trace export: when enableTrace(true) is set, every ScopedSpan also
 * pushes a TraceEvent into a thread-local buffer.  Worker threads
 * call setThreadTrack() once and drainThreadSpans() at batch
 * boundaries; takeTraceEvents() collects everything and
 * writeChromeTrace() serializes Chrome trace-event JSON that loads
 * directly in Perfetto (ui.perfetto.dev).
 *
 * Telemetry is observational only: nothing here feeds back into
 * fuzzing decisions, so enabling it cannot perturb bit-identity.
 */

#ifndef DEJAVUZZ_OBS_TELEMETRY_HH
#define DEJAVUZZ_OBS_TELEMETRY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace dejavuzz::obs {

// --- Instrument identities ----------------------------------------------

/** Monotonically increasing event counters (cumulative). */
enum class Ctr : uint8_t {
    Iterations,    ///< fuzzing iterations completed
    Batches,       ///< scheduler batches executed
    Simulations,   ///< logical simulations (runSingle 1, runDual 2)
    /** Always 0: the lockstep loop never rolls back (the sibling
     *  lane ticks first). Kept only because the campaign
     *  benchmark's ledger reads it. */
    Rollbacks,
    RedoCycles,    ///< always 0, kept for the ledger (see Rollbacks)
    Checkpoints,   ///< always 0, kept for the ledger (see Rollbacks)
    StealAttempts, ///< scheduler steal() calls that scanned victims
    StealHits,     ///< steal() calls that found a batch
    TaintTransitions,  ///< taint-account contribution changes applied
    TaintRescanChecks, ///< incremental-vs-rescan cross-checks run
    FusedLaneCycles,   ///< prefix cycles skipped by runDual resumes
    DivergenceCaptures,  ///< divergence-point snapshots kept
    DivergenceResumes,   ///< runDuals resumed at the divergence point
    /** runDuals whose packet matched a divergence key but whose
     *  snapshot was not kept, so they resumed at the boundary. */
    DivergenceFallbacks,
    BatchRetries,      ///< failed/timed-out batches re-executed
    BatchDeadlineKills,    ///< batches cut off by the wall deadline
    QuarantinedSeeds,      ///< seeds moved to quarantine.jsonl
    FaultsInjected,        ///< failpoints fired (--inject-faults)
    CheckpointGenerations, ///< campaign-dir generations written
    kCount,
};

/** Last-value gauges (sampled at epoch barriers). */
enum class Gauge : uint8_t {
    CoveragePoints, ///< merged coverage points
    DistinctBugs,   ///< deduplicated ledger size
    CorpusSize,     ///< corpus entries (may shrink on minimize)
    Epochs,         ///< epochs completed
    Workers,        ///< configured worker (shard) count
    Executors,      ///< most executor threads that ran batches in an epoch
    kCount,
};

/**
 * Log2-bucketed histograms.  The *Ns entries are span kinds: a
 * ScopedSpan with that kind records its duration here and (when
 * tracing) emits a trace event of the same name.
 */
enum class Hist : uint8_t {
    BatchNs,       ///< scheduler batch wall time
    Phase1Ns,      ///< Phase-1 (trigger + reduction) wall time
    Phase2Ns,      ///< Phase-2 (diffIFT) wall time
    Phase3Ns,      ///< Phase-3 (exploitability) wall time
    RollbackNs,    ///< always empty, kept for the ledger (see Ctr::Rollbacks)
    ModuleTaintNs, ///< moduleTaintStats/appendTaintLog (sampled 1/64)
    ReplayNs,      ///< dejavuzz-replay per-bug wall time
    DequeDepth,    ///< deque depth observed at push()
    VictimScan,    ///< victims scanned per steal() call
    kCount,
};

inline constexpr unsigned kNumCtrs = static_cast<unsigned>(Ctr::kCount);
inline constexpr unsigned kNumGauges =
    static_cast<unsigned>(Gauge::kCount);
inline constexpr unsigned kNumHists = static_cast<unsigned>(Hist::kCount);

/** Snake-case stable names, used for heartbeat fields and traces. */
const char *ctrName(Ctr c);
const char *gaugeName(Gauge g);
const char *histName(Hist h);
/** Short trace-event name for span kinds ("batch", "phase2", ...). */
const char *spanName(Hist h);

// --- Histogram shape -----------------------------------------------------

inline constexpr unsigned kHistBuckets = 64;

/** Bucket index for @p v: 0 holds v==0, bucket b holds [2^(b-1), 2^b). */
inline unsigned
histBucket(uint64_t v)
{
    if (v == 0)
        return 0;
    unsigned width = 64 - static_cast<unsigned>(__builtin_clzll(v));
    return width < kHistBuckets - 1 ? width : kHistBuckets - 1;
}

/** Inclusive lower bound of bucket @p b (0 for the zero bucket). */
inline uint64_t
histBucketLow(unsigned b)
{
    return b == 0 ? 0 : uint64_t{1} << (b - 1);
}

/** Point-in-time copy of one histogram; mergeable across snapshots. */
struct HistSnapshot
{
    uint64_t count = 0; ///< total recorded weight
    uint64_t sum = 0;   ///< weighted sum of recorded values
    std::array<uint64_t, kHistBuckets> buckets{};

    /** Elementwise accumulate; associative and commutative. */
    void merge(const HistSnapshot &other);

    /** Lower bound of the bucket holding quantile @p q in [0, 1]. */
    uint64_t quantileLow(double q) const;
};

/** Point-in-time copy of the whole registry. */
struct TelemetrySnapshot
{
    std::array<uint64_t, kNumCtrs> counters{};
    std::array<uint64_t, kNumGauges> gauges{};
    std::array<HistSnapshot, kNumHists> hists{};

    uint64_t counter(Ctr c) const
    {
        return counters[static_cast<unsigned>(c)];
    }
    uint64_t gauge(Gauge g) const
    {
        return gauges[static_cast<unsigned>(g)];
    }
    const HistSnapshot &hist(Hist h) const
    {
        return hists[static_cast<unsigned>(h)];
    }
};

// --- Cold-path API ------------------------------------------------------

/** Consistent-enough copy of the registry (relaxed reads). */
TelemetrySnapshot snapshot();

/** Zero every instrument and drop buffered trace events (tests only). */
void resetForTest();

/** Monotonic nanoseconds since process start. */
uint64_t nowNs();

/** One completed span, in the registry's monotonic timebase. */
struct TraceEvent
{
    Hist kind;
    uint32_t track;    ///< thread track (worker index; main = 0)
    uint64_t begin_ns;
    uint64_t dur_ns;
    uint64_t arg0;     ///< span-specific (batch: shard)
    uint64_t arg1;     ///< span-specific (batch: batch index)
    bool has_args;
};

/**
 * Serialize @p events as Chrome trace-event JSON ("X" complete
 * events on per-track "tid" lanes, with thread_name metadata).
 */
void writeChromeTrace(std::ostream &os,
                      const std::vector<TraceEvent> &events);

// --- Hot-path API --------------------------------------------------------

namespace detail {

extern std::atomic<uint64_t> g_counters[kNumCtrs];
extern std::atomic<uint64_t> g_gauges[kNumGauges];
extern std::atomic<bool> g_trace_enabled;
extern thread_local uint64_t t_sample_tick;

void histRecordSlow(Hist h, uint64_t value, uint64_t weight);
void pushTraceEvent(Hist kind, uint64_t begin_ns, uint64_t dur_ns,
                    uint64_t arg0, uint64_t arg1, bool has_args);

} // namespace detail

inline void
counterAdd(Ctr c, uint64_t n = 1)
{
    detail::g_counters[static_cast<unsigned>(c)].fetch_add(
        n, std::memory_order_relaxed);
}

inline void
gaugeSet(Gauge g, uint64_t v)
{
    detail::g_gauges[static_cast<unsigned>(g)].store(
        v, std::memory_order_relaxed);
}

/**
 * Record @p value with multiplicity @p weight: count += weight,
 * sum += value * weight, bucket(value) += weight.  Sampled callers
 * pass their sampling period as the weight so totals stay unbiased
 * and merges stay associative.
 */
inline void
histRecord(Hist h, uint64_t value, uint64_t weight = 1)
{
    detail::histRecordSlow(h, value, weight);
}

/** Turn trace-event capture on/off (off by default). */
void enableTrace(bool on);

inline bool
traceEnabled()
{
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/** Name the calling thread's trace track (worker index; main = 0). */
void setThreadTrack(uint32_t track);

/**
 * Move the calling thread's buffered trace events into the global
 * sink.  Workers call this at batch boundaries so buffers stay small
 * and no lock is taken inside a batch.
 */
void drainThreadSpans();

/**
 * Drain the calling thread, then return (and clear) every globally
 * buffered trace event.
 */
std::vector<TraceEvent> takeTraceEvents();

/**
 * Times its scope into histogram @p kind; when tracing is enabled
 * also records a trace event on the calling thread's track.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(Hist kind)
        : kind_(kind), arg0_(0), arg1_(0), has_args_(false),
          begin_(nowNs())
    {}

    ScopedSpan(Hist kind, uint64_t arg0, uint64_t arg1)
        : kind_(kind), arg0_(arg0), arg1_(arg1), has_args_(true),
          begin_(nowNs())
    {}

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan()
    {
        const uint64_t dur = nowNs() - begin_;
        detail::histRecordSlow(kind_, dur, 1);
        if (traceEnabled())
            detail::pushTraceEvent(kind_, begin_, dur, arg0_, arg1_,
                                   has_args_);
    }

  private:
    Hist kind_;
    uint64_t arg0_;
    uint64_t arg1_;
    bool has_args_;
    uint64_t begin_;
};

/**
 * Cheap span for per-cycle call sites: times 1 call in 64 and
 * records it with weight 64, so the histogram's count and sum remain
 * unbiased estimates of the true totals.  Never emits trace events.
 */
class SampledSpan
{
  public:
    static constexpr uint64_t kPeriod = 64;

    explicit SampledSpan(Hist kind) : kind_(kind)
    {
        timing_ = (detail::t_sample_tick++ % kPeriod) == 0;
        if (timing_)
            begin_ = nowNs();
    }

    SampledSpan(const SampledSpan &) = delete;
    SampledSpan &operator=(const SampledSpan &) = delete;

    ~SampledSpan()
    {
        if (timing_)
            detail::histRecordSlow(kind_, nowNs() - begin_, kPeriod);
    }

  private:
    Hist kind_;
    bool timing_;
    uint64_t begin_ = 0;
};

} // namespace dejavuzz::obs

#endif // DEJAVUZZ_OBS_TELEMETRY_HH

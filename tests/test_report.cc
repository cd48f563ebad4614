/**
 * @file
 * Tests of the reporting subsystem: the flat-JSON parser, campaign
 * JSONL round-tripping (every record the orchestrator emits parses
 * back and satisfies the schema invariants), strict rejection of
 * malformed logs, and the cross-campaign comparison renderers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "campaign/io_util.hh"
#include "campaign/orchestrator.hh"
#include "campaign/stats.hh"
#include "obs/heartbeat.hh"
#include "obs/telemetry.hh"
#include "report/campaign_log.hh"
#include "report/json.hh"
#include "report/report.hh"
#include "uarch/config.hh"

namespace dejavuzz {
namespace {

using campaign::CampaignOptions;
using campaign::CampaignOrchestrator;
using report::CampaignLog;
using report::JsonObject;
using report::ReportFormat;

// --- JSON parser --------------------------------------------------------

TEST(JsonParser, ParsesScalarsAndEscapes)
{
    JsonObject obj;
    std::string error;
    ASSERT_TRUE(report::parseFlatJsonObject(
        R"({"a":1,"b":-2.5,"c":"x\nyA","d":true,"e":null})",
        obj, &error))
        << error;
    EXPECT_EQ(obj.size(), 5u);
    EXPECT_DOUBLE_EQ(obj["a"].number, 1.0);
    EXPECT_DOUBLE_EQ(obj["b"].number, -2.5);
    EXPECT_EQ(obj["c"].text, "x\nyA");
    EXPECT_TRUE(obj["d"].boolean);
    EXPECT_EQ(obj["e"].kind, report::JsonValue::Kind::Null);
}

TEST(JsonParser, RoundTripsJsonEscape)
{
    const std::string nasty = "a\"b\\c\nd\te\rf\x01g";
    const std::string line =
        "{\"s\":\"" + campaign::jsonEscape(nasty) + "\"}";
    JsonObject obj;
    std::string error;
    ASSERT_TRUE(report::parseFlatJsonObject(line, obj, &error))
        << error;
    EXPECT_EQ(obj["s"].text, nasty);
}

TEST(JsonParser, RejectsMalformedInput)
{
    JsonObject obj;
    EXPECT_FALSE(report::parseFlatJsonObject("", obj));
    EXPECT_FALSE(report::parseFlatJsonObject("{\"a\":1", obj));
    EXPECT_FALSE(report::parseFlatJsonObject("{\"a\":}", obj));
    EXPECT_FALSE(report::parseFlatJsonObject("{\"a\":1} x", obj));
    EXPECT_FALSE(
        report::parseFlatJsonObject("{\"a\":1,\"a\":2}", obj))
        << "duplicate keys must be rejected";
    EXPECT_FALSE(
        report::parseFlatJsonObject("{\"a\":{\"b\":1}}", obj))
        << "nested objects are not part of the schema";
    EXPECT_FALSE(report::parseFlatJsonObject("{\"a\":[1]}", obj))
        << "arrays are not part of the schema";
    // Not JSON numbers, even though strtod would accept them.
    EXPECT_FALSE(report::parseFlatJsonObject("{\"a\":nan}", obj));
    EXPECT_FALSE(report::parseFlatJsonObject("{\"a\":inf}", obj));
    EXPECT_FALSE(report::parseFlatJsonObject("{\"a\":0x10}", obj));
    EXPECT_FALSE(report::parseFlatJsonObject("{\"a\":1.}", obj));
}

TEST(JsonParser, KeepsFullIntegerPrecision)
{
    JsonObject obj;
    std::string error;
    ASSERT_TRUE(report::parseFlatJsonObject(
        "{\"seed\":18446744073709551615,\"e\":1e3}", obj, &error))
        << error;
    EXPECT_EQ(obj["seed"].raw, "18446744073709551615");
    EXPECT_DOUBLE_EQ(obj["e"].number, 1000.0);
}

// --- Campaign log round-trip --------------------------------------------

/** Every summary field after master_seed, with all counters zero. */
const char kZeroSummaryTail[] =
    "\"templates\":\"same-domain\",\"iterations\":0,"
    "\"simulations\":0,\"windows\":0,\"coverage_points\":0,"
    "\"distinct_bugs\":0,\"total_reports\":0,\"epochs\":0,"
    "\"corpus_size\":0,\"corpus_preloaded\":0,"
    "\"corpus_minimized\":0,\"coverage_preloaded\":0,"
    "\"bugs_restored\":0,\"reports_restored\":0,"
    "\"steals\":0,\"sched\":\"steal\",\"batch\":32,"
    "\"batches\":0,\"batch_retries\":0,"
    "\"batch_deadline_kills\":0,\"batches_failed\":0,"
    "\"quarantined_seeds\":0,\"kinds_disabled\":0,"
    "\"batches_stolen\":0,\"steal_idle_ns\":0,"
    "\"wall_seconds\":0.0,\"iters_per_sec\":0.0}\n";

CampaignOptions
tinyCampaign(unsigned workers, uint64_t iters, uint64_t seed)
{
    CampaignOptions options;
    options.workers = workers;
    options.master_seed = seed;
    options.total_iterations = iters;
    options.epoch_iterations = 125;
    options.base_config = uarch::smallBoomConfig();
    return options;
}

CampaignLog
runAndParse(const CampaignOptions &options, const std::string &name)
{
    CampaignOrchestrator orchestrator(options);
    orchestrator.run();
    std::stringstream jsonl;
    orchestrator.writeJsonl(jsonl);

    CampaignLog log;
    std::string error;
    EXPECT_TRUE(
        report::parseCampaignLog(jsonl, name, log, &error))
        << error;
    return log;
}

TEST(CampaignLogRoundTrip, EveryEmittedLineParsesBack)
{
    const CampaignLog log =
        runAndParse(tinyCampaign(2, 750, 7), "roundtrip");

    // All record types present: the schema's five discriminators.
    ASSERT_EQ(log.workers.size(), 2u);
    EXPECT_FALSE(log.triggers.empty());
    EXPECT_FALSE(log.epochs.empty());
    EXPECT_FALSE(log.bugs.empty());
    EXPECT_EQ(log.summary.workers, 2u);
    EXPECT_EQ(log.summary.policy, "replicas");
    EXPECT_EQ(log.summary.master_seed, 7u);
    EXPECT_EQ(log.summary.templates, "same-domain");

    // Summary totals equal per-worker sums (the remaining schema
    // invariants are covered by validateCampaignLog below).
    uint64_t iterations = 0, simulations = 0, reports = 0;
    for (const auto &w : log.workers) {
        iterations += w.iterations;
        simulations += w.simulations;
        reports += w.bugs;
    }
    EXPECT_EQ(iterations, log.summary.iterations);
    EXPECT_EQ(simulations, log.summary.simulations);
    EXPECT_EQ(reports, log.summary.total_reports);
    EXPECT_EQ(log.summary.iterations, 750u);

    EXPECT_TRUE(validateCampaignLog(log).empty());
}

TEST(CampaignLogRoundTrip, ValidatorCatchesInconsistentLogs)
{
    CampaignLog log = runAndParse(tinyCampaign(2, 500, 3), "tamper");
    ASSERT_TRUE(validateCampaignLog(log).empty());
    log.summary.iterations += 1;
    EXPECT_FALSE(validateCampaignLog(log).empty());
}

TEST(CampaignLogRoundTrip, ValidatorCatchesRobustnessMismatches)
{
    const CampaignLog clean =
        runAndParse(tinyCampaign(2, 500, 3), "robust");
    ASSERT_TRUE(validateCampaignLog(clean).empty());

    CampaignLog log = clean;
    log.summary.batches_failed = log.summary.batches + 1;
    EXPECT_FALSE(validateCampaignLog(log).empty());

    log = clean;
    log.summary.quarantined_seeds = 1; // with zero failed batches
    EXPECT_FALSE(validateCampaignLog(log).empty());

    log = clean;
    log.summary.batch_deadline_kills =
        log.summary.batches + log.summary.batch_retries + 1;
    EXPECT_FALSE(validateCampaignLog(log).empty());

    log = clean;
    log.summary.kinds_disabled = log.summary.workers + 1;
    EXPECT_FALSE(validateCampaignLog(log).empty());
}

TEST(CampaignLogTrailer, VerifiesAndRejectsTamperedLogs)
{
    // A checkpointed log ends with a trailer record whose CRC the
    // parser re-computes as it reads; byte-exact logs pass, any
    // tampering before the trailer fails the parse outright.
    CampaignOrchestrator orchestrator(tinyCampaign(2, 500, 3));
    orchestrator.run();
    std::stringstream jsonl;
    orchestrator.writeJsonl(jsonl);
    const std::string payload = jsonl.str();
    const uint32_t crc =
        campaign::crc32(payload.data(), payload.size());
    const std::string with_trailer =
        payload + "{\"type\":\"trailer\",\"generation\":4,\"bytes\":" +
        std::to_string(payload.size()) +
        ",\"crc32\":" + std::to_string(crc) + "}\n";

    CampaignLog log;
    std::string error;
    {
        std::istringstream is(with_trailer);
        ASSERT_TRUE(
            report::parseCampaignLog(is, "trailer", log, &error))
            << error;
    }
    EXPECT_TRUE(log.has_trailer);
    EXPECT_EQ(log.trailer.generation, 4u);
    EXPECT_EQ(log.trailer.bytes, payload.size());
    EXPECT_TRUE(validateCampaignLog(log).empty());

    // One corrupted payload byte (a digit, so every record still
    // parses and only the checksum can notice): CRC mismatch.
    {
        std::string bent = with_trailer;
        const size_t pos = bent.find("\"iterations\":") + 13;
        bent[pos] = bent[pos] == '1' ? '2' : '1';
        std::istringstream is(bent);
        EXPECT_FALSE(
            report::parseCampaignLog(is, "bent", log, &error));
        EXPECT_NE(error.find("CRC"), std::string::npos) << error;
    }

    // A record appended after the trailer: the log was modified
    // after it was sealed.
    {
        std::istringstream is(
            with_trailer +
            "{\"type\":\"epoch\",\"epoch\":0,\"iterations\":1,"
            "\"coverage_points\":1,\"distinct_bugs\":0,"
            "\"corpus_size\":0,\"wall_seconds\":0.1}\n");
        EXPECT_FALSE(
            report::parseCampaignLog(is, "appended", log, &error));
        EXPECT_NE(error.find("after the integrity trailer"),
                  std::string::npos)
            << error;
    }

    // A truncated log whose trailer survives: byte-count mismatch.
    {
        const size_t cut = payload.find('\n');
        ASSERT_NE(cut, std::string::npos);
        std::istringstream is(
            payload.substr(cut + 1) +
            "{\"type\":\"trailer\",\"generation\":4,\"bytes\":" +
            std::to_string(payload.size()) +
            ",\"crc32\":" + std::to_string(crc) + "}\n");
        EXPECT_FALSE(
            report::parseCampaignLog(is, "cut", log, &error));
        EXPECT_NE(error.find("torn log"), std::string::npos)
            << error;
    }

    // An out-of-range crc32 field is rejected before comparison.
    {
        std::istringstream is(
            payload +
            "{\"type\":\"trailer\",\"generation\":4,\"bytes\":" +
            std::to_string(payload.size()) +
            ",\"crc32\":4294967296}\n");
        EXPECT_FALSE(
            report::parseCampaignLog(is, "range", log, &error));
        EXPECT_NE(error.find("32-bit"), std::string::npos) << error;
    }
}

TEST(CampaignLogRoundTrip, ParserRejectsBrokenLogs)
{
    CampaignLog log;
    std::string error;

    std::stringstream unknown_type(
        "{\"type\":\"mystery\",\"x\":1}\n");
    EXPECT_FALSE(report::parseCampaignLog(unknown_type, "bad", log,
                                          &error));
    EXPECT_NE(error.find("unknown record type"), std::string::npos)
        << error;

    std::stringstream missing_field(
        "{\"type\":\"trigger\",\"kind\":\"branch-mispred\"}\n");
    EXPECT_FALSE(report::parseCampaignLog(missing_field, "bad", log,
                                          &error));
    EXPECT_NE(error.find("missing field"), std::string::npos)
        << error;

    std::stringstream negative_field(
        "{\"type\":\"trigger\",\"kind\":\"k\",\"windows\":-1,"
        "\"training_overhead\":0,\"effective_overhead\":0}\n");
    EXPECT_FALSE(report::parseCampaignLog(negative_field, "bad",
                                          log, &error));
    EXPECT_NE(error.find("non-negative"), std::string::npos)
        << error;

    std::stringstream no_summary(
        "{\"type\":\"epoch\",\"epoch\":0,\"iterations\":1,"
        "\"coverage_points\":1,\"distinct_bugs\":0,"
        "\"corpus_size\":0,\"batches_stolen\":0,"
        "\"steal_idle_ns\":0,\"wall_seconds\":0.1}\n");
    EXPECT_FALSE(report::parseCampaignLog(no_summary, "bad", log,
                                          &error));
    EXPECT_NE(error.find("summary"), std::string::npos) << error;
}

TEST(CampaignLogRoundTrip, PreservesFullRangeMasterSeed)
{
    std::stringstream log_text(
        "{\"type\":\"summary\",\"workers\":0,"
        "\"policy\":\"replicas\","
        "\"master_seed\":18446744073709551615," +
        std::string(kZeroSummaryTail));
    CampaignLog log;
    std::string error;
    ASSERT_TRUE(report::parseCampaignLog(log_text, "big", log,
                                         &error))
        << error;
    EXPECT_EQ(log.summary.master_seed,
              18446744073709551615ULL);
}

TEST(CampaignLogRoundTrip, RejectsLogsWithoutEpochRecords)
{
    // Every counted epoch writes an epoch record, so a log whose
    // summary states epochs but carries no epoch lines is corrupt.
    CampaignLog log = runAndParse(tinyCampaign(1, 250, 5), "old");
    ASSERT_GT(log.summary.epochs, 0u);
    log.epochs.clear();
    const std::vector<std::string> problems = validateCampaignLog(log);
    ASSERT_FALSE(problems.empty());
    EXPECT_EQ(problems[0],
              "epoch record count does not match summary.epochs");
}

TEST(CampaignLogRoundTrip, SchedulerFieldsRoundTrip)
{
    CampaignOptions options = tinyCampaign(2, 500, 11);
    options.batch_iterations = 16;
    const CampaignLog log = runAndParse(options, "sched");

    EXPECT_EQ(log.summary.sched, "steal");
    EXPECT_EQ(log.summary.batch, 16u);
    // 500 iters at epoch 125 x 2 workers: ceil(125/16) = 8 batches
    // per shard per epoch, 2 epochs.
    EXPECT_EQ(log.summary.batches, 32u);
    EXPECT_LE(log.summary.batches_stolen, log.summary.batches);

    uint64_t stolen = 0;
    for (const auto &row : log.epochs)
        stolen += row.batches_stolen;
    EXPECT_EQ(stolen, log.summary.batches_stolen);
    EXPECT_TRUE(validateCampaignLog(log).empty());
}

TEST(CampaignLogRoundTrip, ValidatorCatchesStolenBatchMismatch)
{
    CampaignLog log = runAndParse(tinyCampaign(2, 500, 3), "steals");
    ASSERT_TRUE(validateCampaignLog(log).empty());
    log.summary.batches_stolen = log.summary.batches + 1;
    EXPECT_FALSE(validateCampaignLog(log).empty());
}

/** @p log without field @p key of its first @p type record. */
std::string
withoutField(const std::string &log, const std::string &type,
             const std::string &key)
{
    const size_t line = log.find("{\"type\":\"" + type + "\"");
    EXPECT_NE(line, std::string::npos) << "no " << type << " record";
    const size_t at = log.find(",\"" + key + "\":", line);
    EXPECT_LT(at, log.find('\n', line)) << type << " lacks " << key;
    size_t end = at + key.size() + 4; // past ,"key":
    end = log[end] == '"' ? log.find('"', end + 1) + 1
                          : log.find_first_of(",}", end);
    return log.substr(0, at) + log.substr(end);
}

TEST(CampaignLogRoundTrip, RejectsLogsMissingAnyEmittedField)
{
    // The fields older writers left out are required like every
    // other: a log without one is refused, not read with defaults.
    CampaignOptions options = tinyCampaign(2, 750, 7);
    options.heartbeat_sec = 60.0; // only the final heartbeat record
    CampaignOrchestrator orchestrator(options);
    orchestrator.run();
    std::stringstream jsonl;
    orchestrator.writeJsonlWithHeartbeats(jsonl);
    const std::string text = jsonl.str();

    CampaignLog log;
    std::string error;
    {
        std::istringstream is(text);
        ASSERT_TRUE(report::parseCampaignLog(is, "full", log, &error))
            << error;
    }
    const std::pair<const char *, const char *> fields[] = {
        {"epoch", "batches_stolen"},
        {"epoch", "steal_idle_ns"},
        {"bug", "config"},
        {"bug", "variant"},
        {"heartbeat", "batch_p50_ns"},
        {"heartbeat", "batch_p99_ns"},
        {"summary", "templates"},
        {"summary", "corpus_preloaded"},
        {"summary", "corpus_minimized"},
        {"summary", "coverage_preloaded"},
        {"summary", "bugs_restored"},
        {"summary", "reports_restored"},
        {"summary", "sched"},
        {"summary", "batch"},
        {"summary", "batches"},
        {"summary", "batches_stolen"},
        {"summary", "batch_retries"},
        {"summary", "batch_deadline_kills"},
        {"summary", "batches_failed"},
        {"summary", "quarantined_seeds"},
        {"summary", "kinds_disabled"},
        {"summary", "steal_idle_ns"},
    };
    for (const auto &[type, key] : fields) {
        std::istringstream is(withoutField(text, type, key));
        EXPECT_FALSE(report::parseCampaignLog(is, "cut", log, &error))
            << type << " without " << key;
        EXPECT_NE(error.find(std::string("missing field \"") + key +
                             "\""),
                  std::string::npos)
            << error;
    }
}

// --- Heartbeat records --------------------------------------------------

TEST(CampaignLogRoundTrip, HeartbeatsRoundTripAndValidate)
{
    obs::resetForTest();
    CampaignOptions options = tinyCampaign(2, 500, 7);
    options.heartbeat_sec = 0.002;
    CampaignOrchestrator orchestrator(options);
    orchestrator.run();

    std::stringstream jsonl;
    orchestrator.writeJsonlWithHeartbeats(jsonl);
    CampaignLog log;
    std::string error;
    ASSERT_TRUE(report::parseCampaignLog(jsonl, "beat", log, &error))
        << error;

    // The emitter always flushes a final record at stop(), so even a
    // run shorter than the interval heartbeats at least once, and
    // the last record carries the finished campaign's totals.
    ASSERT_FALSE(log.heartbeats.empty());
#ifndef DEJAVUZZ_NO_TELEMETRY
    EXPECT_EQ(log.heartbeats.back().counter(obs::Ctr::Iterations),
              500u);
    EXPECT_GT(log.heartbeats.back().histCount(obs::Hist::BatchNs),
              0u);
#endif
    EXPECT_TRUE(validateCampaignLog(log).empty());

    // The heartbeat-free view stays bit-reproducible: no heartbeat
    // lines leak into writeJsonl().
    std::stringstream plain;
    orchestrator.writeJsonl(plain);
    EXPECT_EQ(plain.str().find("\"type\":\"heartbeat\""),
              std::string::npos);
}

/** Two-heartbeat log with an all-zero summary, for hand-corruption. */
std::string
syntheticHeartbeatLog(uint64_t seq0, double wall0,
                      const obs::TelemetrySnapshot &first,
                      uint64_t seq1, double wall1,
                      const obs::TelemetrySnapshot &second)
{
    return obs::formatHeartbeatRecord(seq0, wall0, first) + "\n" +
           obs::formatHeartbeatRecord(seq1, wall1, second) + "\n" +
           "{\"type\":\"worker\",\"worker\":0,\"config\":\"c\","
           "\"variant\":\"full\",\"iterations\":0,"
           "\"simulations\":0,\"windows\":0,\"coverage_points\":0,"
           "\"seeds_imported\":0,\"bugs\":0,"
           "\"active_seconds\":0.0}\n"
           "{\"type\":\"summary\",\"workers\":1,"
           "\"policy\":\"replicas\",\"master_seed\":1," +
           kZeroSummaryTail;
}

std::vector<std::string>
problemsOf(const std::string &text)
{
    std::stringstream is(text);
    CampaignLog log;
    std::string error;
    EXPECT_TRUE(report::parseCampaignLog(is, "hb", log, &error))
        << error;
    return validateCampaignLog(log);
}

bool
hasProblem(const std::vector<std::string> &problems,
           const std::string &needle)
{
    for (const auto &p : problems)
        if (p.find(needle) != std::string::npos)
            return true;
    return false;
}

TEST(CampaignLogRoundTrip, ValidatorRejectsCorruptedHeartbeats)
{
    const auto ctr = [](obs::Ctr c) {
        return static_cast<unsigned>(c);
    };
    obs::TelemetrySnapshot first;
    first.counters[ctr(obs::Ctr::Iterations)] = 10;
    first.counters[ctr(obs::Ctr::StealAttempts)] = 4;
    first.counters[ctr(obs::Ctr::StealHits)] = 2;
    first.hists[static_cast<unsigned>(obs::Hist::BatchNs)] = {
        2, 3000, {}};
    obs::TelemetrySnapshot second = first;
    second.counters[ctr(obs::Ctr::Iterations)] = 20;

    // Control: the uncorrupted pair validates clean.
    EXPECT_TRUE(
        problemsOf(syntheticHeartbeatLog(0, 1.0, first, 1, 2.0,
                                         second))
            .empty());

    // A cumulative counter going backwards.
    obs::TelemetrySnapshot decreased = second;
    decreased.counters[ctr(obs::Ctr::Iterations)] = 5;
    EXPECT_TRUE(hasProblem(
        problemsOf(syntheticHeartbeatLog(0, 1.0, first, 1, 2.0,
                                         decreased)),
        "counter \"iterations\" decreases"));

    // Wall clock running backwards.
    EXPECT_TRUE(hasProblem(
        problemsOf(syntheticHeartbeatLog(0, 2.0, first, 1, 1.0,
                                         second)),
        "wall_seconds regresses"));

    // Sequence numbers must strictly increase.
    EXPECT_TRUE(hasProblem(
        problemsOf(syntheticHeartbeatLog(3, 1.0, first, 3, 2.0,
                                         second)),
        "seq values are not strictly increasing"));

    // More successful steals than attempts is impossible.
    obs::TelemetrySnapshot impossible = second;
    impossible.counters[ctr(obs::Ctr::StealHits)] = 9;
    EXPECT_TRUE(hasProblem(
        problemsOf(syntheticHeartbeatLog(0, 1.0, first, 1, 2.0,
                                         impossible)),
        "steal_hits exceeds steal_attempts"));

    // Histogram totals are cumulative too.
    obs::TelemetrySnapshot shrunk = second;
    shrunk.hists[static_cast<unsigned>(obs::Hist::BatchNs)].sum = 1;
    EXPECT_TRUE(hasProblem(
        problemsOf(syntheticHeartbeatLog(0, 1.0, first, 1, 2.0,
                                         shrunk)),
        "histogram \"batch_ns\" sum decreases"));
}

TEST(CampaignLogRoundTrip, ParserRejectsIncompleteHeartbeats)
{
    CampaignLog log;
    std::string error;
    std::stringstream missing(
        "{\"type\":\"heartbeat\",\"seq\":0,"
        "\"wall_seconds\":0.5}\n");
    EXPECT_FALSE(
        report::parseCampaignLog(missing, "bad", log, &error));
    EXPECT_NE(error.find("missing field"), std::string::npos)
        << error;
}

// --- Comparison rendering -----------------------------------------------

TEST(ComparisonReport, MarkdownCoversEveryAxis)
{
    std::vector<CampaignLog> logs;
    logs.push_back(runAndParse(tinyCampaign(2, 750, 7), "alpha"));
    logs.push_back(runAndParse(tinyCampaign(2, 750, 9), "beta"));

    const std::string md =
        report::renderComparison(logs, ReportFormat::Markdown);
    EXPECT_NE(md.find("# DejaVuzz campaign comparison"),
              std::string::npos);
    EXPECT_NE(md.find("`alpha`"), std::string::npos);
    EXPECT_NE(md.find("`beta`"), std::string::npos);
    EXPECT_NE(md.find("## Campaign overview"), std::string::npos);
    EXPECT_NE(md.find("## Scheduler occupancy"), std::string::npos);
    EXPECT_NE(md.find("## Per-config totals (Table 2 axes)"),
              std::string::npos);
    EXPECT_NE(md.find("Transient-window training overhead"),
              std::string::npos);
    EXPECT_NE(md.find("Cross-campaign bug matrix"),
              std::string::npos);
    EXPECT_NE(md.find("## Coverage growth (Fig 7 axes)"),
              std::string::npos);
    EXPECT_NE(md.find("time-to-first-bug"), std::string::npos);
}

TEST(ComparisonReport, CsvSectionsAreWellFormed)
{
    std::vector<CampaignLog> logs;
    logs.push_back(runAndParse(tinyCampaign(1, 375, 5), "solo"));

    const std::string csv =
        report::renderComparison(logs, ReportFormat::Csv);
    EXPECT_NE(csv.find("# section: Campaign overview"),
              std::string::npos);
    EXPECT_NE(csv.find("# section: Coverage growth (Fig 7 axes)"),
              std::string::npos);
    // Overview data row leads with the campaign label.
    EXPECT_NE(csv.find("\nsolo,"), std::string::npos);
}

} // namespace
} // namespace dejavuzz

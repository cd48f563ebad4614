#include "report/campaign_log.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <istream>

#include "campaign/io_util.hh"
#include "report/json.hh"

namespace dejavuzz::report {

namespace {

/** Field extraction over one parsed line; collects the first error. */
class Fields
{
  public:
    Fields(const JsonObject &obj, std::string &error)
        : obj_(obj), error_(error)
    {}

    bool
    ok() const
    {
        return error_.empty();
    }

    void
    u64(const char *key, uint64_t &out)
    {
        const JsonValue *value = find(key);
        if (!value)
            return;
        // Parse from the literal token, not the double: counters
        // like master_seed use the full 64-bit range, which double
        // cannot represent exactly (and an out-of-range
        // double->uint64 cast would be UB).
        bool integral = value->isNumber() && !value->raw.empty();
        for (char c : value->raw) {
            if (c < '0' || c > '9')
                integral = false;
        }
        if (!integral) {
            set(std::string("field \"") + key +
                "\" must be a non-negative integer");
            return;
        }
        errno = 0;
        out = std::strtoull(value->raw.c_str(), nullptr, 10);
        if (errno == ERANGE)
            set(std::string("field \"") + key +
                "\" exceeds the 64-bit range");
    }

    void
    f64(const char *key, double &out)
    {
        const JsonValue *value = find(key);
        if (!value)
            return;
        if (!value->isNumber() || value->number < 0.0 ||
            !std::isfinite(value->number)) {
            set(std::string("field \"") + key +
                "\" must be a finite non-negative number");
            return;
        }
        out = value->number;
    }

    void
    str(const char *key, std::string &out)
    {
        const JsonValue *value = find(key);
        if (!value)
            return;
        if (!value->isString()) {
            set(std::string("field \"") + key +
                "\" must be a string");
            return;
        }
        out = value->text;
    }

  private:
    const JsonValue *
    find(const char *key)
    {
        if (!ok())
            return nullptr;
        auto it = obj_.find(key);
        if (it == obj_.end()) {
            set(std::string("missing field \"") + key + "\"");
            return nullptr;
        }
        return &it->second;
    }

    void
    set(const std::string &what)
    {
        if (error_.empty())
            error_ = what;
    }

    const JsonObject &obj_;
    std::string &error_;
};

} // namespace

double
CampaignLog::timeToFirstBug() const
{
    for (const auto &row : epochs) {
        if (row.distinct_bugs > 0)
            return row.wall_seconds;
    }
    return -1.0;
}

double
CampaignLog::timeToCoverage(uint64_t target) const
{
    for (const auto &row : epochs) {
        if (row.coverage_points >= target)
            return row.wall_seconds;
    }
    return -1.0;
}

bool
parseCampaignLog(std::istream &is, const std::string &name,
                 CampaignLog &out, std::string *error)
{
    out = CampaignLog{};
    out.name = name;

    unsigned summaries = 0;
    uint64_t line_no = 0;
    std::string line;
    auto fail = [&](const std::string &what) {
        if (error)
            *error = name + " line " + std::to_string(line_no) +
                     ": " + what;
        return false;
    };

    // Running integrity state: a checkpointed log ends with a
    // trailer record whose CRC-32 covers every byte before it, so
    // the checksum is chained line by line as the log is consumed
    // (getline strips the '\n' each line was written with).
    uint64_t bytes_before = 0;
    uint32_t running_crc = 0;
    auto consume = [&](const std::string &text) {
        running_crc =
            campaign::crc32(text.data(), text.size(), running_crc);
        running_crc = campaign::crc32("\n", 1, running_crc);
        bytes_before += text.size() + 1;
    };

    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty()) {
            consume(line);
            continue;
        }
        if (out.has_trailer)
            return fail("record after the integrity trailer");

        JsonObject obj;
        std::string json_error;
        if (!parseFlatJsonObject(line, obj, &json_error))
            return fail(json_error);

        std::string field_error;
        Fields fields(obj, field_error);
        std::string type;
        fields.str("type", type);
        if (!fields.ok())
            return fail(field_error);

        if (type == "worker") {
            WorkerRow row;
            fields.u64("worker", row.worker);
            fields.str("config", row.config);
            fields.str("variant", row.variant);
            fields.u64("iterations", row.iterations);
            fields.u64("simulations", row.simulations);
            fields.u64("windows", row.windows);
            fields.u64("coverage_points", row.coverage_points);
            fields.u64("seeds_imported", row.seeds_imported);
            fields.u64("bugs", row.bugs);
            fields.f64("active_seconds", row.active_seconds);
            if (!fields.ok())
                return fail(field_error);
            out.workers.push_back(std::move(row));
        } else if (type == "trigger") {
            TriggerRow row;
            fields.str("kind", row.kind);
            fields.u64("windows", row.windows);
            fields.u64("training_overhead", row.training_overhead);
            fields.u64("effective_overhead",
                       row.effective_overhead);
            if (!fields.ok())
                return fail(field_error);
            out.triggers.push_back(std::move(row));
        } else if (type == "epoch") {
            EpochRow row;
            fields.u64("epoch", row.epoch);
            fields.u64("iterations", row.iterations);
            fields.u64("coverage_points", row.coverage_points);
            fields.u64("distinct_bugs", row.distinct_bugs);
            fields.u64("corpus_size", row.corpus_size);
            fields.u64("batches_stolen", row.batches_stolen);
            fields.u64("steal_idle_ns", row.steal_idle_ns);
            fields.f64("wall_seconds", row.wall_seconds);
            if (!fields.ok())
                return fail(field_error);
            out.epochs.push_back(row);
        } else if (type == "bug") {
            BugRow row;
            fields.str("key", row.key);
            fields.str("description", row.description);
            fields.u64("worker", row.worker);
            fields.u64("epoch", row.epoch);
            fields.u64("iteration", row.iteration);
            fields.str("config", row.config);
            fields.str("variant", row.variant);
            fields.u64("hits", row.hits);
            if (!fields.ok())
                return fail(field_error);
            out.bugs.push_back(std::move(row));
        } else if (type == "heartbeat") {
            HeartbeatRow row;
            fields.u64("seq", row.seq);
            fields.f64("wall_seconds", row.wall_seconds);
            for (unsigned i = 0; i < obs::kNumCtrs; ++i)
                fields.u64(obs::ctrName(static_cast<obs::Ctr>(i)),
                           row.counters[i]);
            for (unsigned i = 0; i < obs::kNumGauges; ++i)
                fields.u64(obs::gaugeName(static_cast<obs::Gauge>(i)),
                           row.gauges[i]);
            for (unsigned i = 0; i < obs::kNumHists; ++i) {
                const std::string name =
                    obs::histName(static_cast<obs::Hist>(i));
                fields.u64((name + "_count").c_str(),
                           row.hist_count[i]);
                fields.u64((name + "_sum").c_str(), row.hist_sum[i]);
            }
            fields.u64("batch_p50_ns", row.batch_p50_ns);
            fields.u64("batch_p99_ns", row.batch_p99_ns);
            if (!fields.ok())
                return fail(field_error);
            out.heartbeats.push_back(row);
        } else if (type == "summary") {
            SummaryRow row;
            fields.u64("workers", row.workers);
            fields.str("policy", row.policy);
            fields.u64("master_seed", row.master_seed);
            fields.str("templates", row.templates);
            fields.u64("iterations", row.iterations);
            fields.u64("simulations", row.simulations);
            fields.u64("windows", row.windows);
            fields.u64("coverage_points", row.coverage_points);
            fields.u64("distinct_bugs", row.distinct_bugs);
            fields.u64("total_reports", row.total_reports);
            fields.u64("epochs", row.epochs);
            fields.u64("corpus_size", row.corpus_size);
            fields.u64("corpus_preloaded", row.corpus_preloaded);
            fields.u64("corpus_minimized", row.corpus_minimized);
            fields.u64("coverage_preloaded", row.coverage_preloaded);
            fields.u64("bugs_restored", row.bugs_restored);
            fields.u64("reports_restored", row.reports_restored);
            fields.u64("steals", row.steals);
            fields.u64("batch", row.batch);
            fields.u64("batches", row.batches);
            fields.u64("batches_stolen", row.batches_stolen);
            fields.u64("batch_retries", row.batch_retries);
            fields.u64("batch_deadline_kills",
                       row.batch_deadline_kills);
            fields.u64("batches_failed", row.batches_failed);
            fields.u64("quarantined_seeds", row.quarantined_seeds);
            fields.u64("kinds_disabled", row.kinds_disabled);
            fields.u64("steal_idle_ns", row.steal_idle_ns);
            fields.f64("wall_seconds", row.wall_seconds);
            fields.f64("iters_per_sec", row.iters_per_sec);
            if (!fields.ok())
                return fail(field_error);
            out.summary = std::move(row);
            ++summaries;
        } else if (type == "trailer") {
            TrailerRow row;
            uint64_t crc_field = 0;
            fields.u64("generation", row.generation);
            fields.u64("bytes", row.bytes);
            fields.u64("crc32", crc_field);
            if (!fields.ok())
                return fail(field_error);
            if (crc_field > 0xffffffffull)
                return fail(
                    "field \"crc32\" exceeds the 32-bit range");
            row.crc32 = static_cast<uint32_t>(crc_field);
            if (row.bytes != bytes_before)
                return fail(
                    "trailer covers " + std::to_string(row.bytes) +
                    " bytes but " + std::to_string(bytes_before) +
                    " precede it (torn log)");
            if (row.crc32 != running_crc)
                return fail("trailer CRC mismatch (corrupt log)");
            out.trailer = row;
            out.has_trailer = true;
        } else {
            return fail("unknown record type \"" + type + "\"");
        }
        consume(line);
    }

    if (summaries != 1)
        return fail("expected exactly one summary record, found " +
                    std::to_string(summaries));
    return true;
}

std::vector<std::string>
validateCampaignLog(const CampaignLog &log)
{
    std::vector<std::string> problems;
    auto check = [&](bool condition, const std::string &what) {
        if (!condition)
            problems.push_back(what);
    };
    auto sum = [&](auto field) {
        uint64_t total = 0;
        for (const auto &row : log.workers)
            total += row.*field;
        return total;
    };

    const SummaryRow &s = log.summary;
    check(!log.workers.empty(), "log has no worker records");
    check(s.workers == log.workers.size(),
          "summary.workers does not match the worker record count");
    check(sum(&WorkerRow::iterations) == s.iterations,
          "per-worker iterations do not sum to summary.iterations");
    check(sum(&WorkerRow::simulations) == s.simulations,
          "per-worker simulations do not sum to "
          "summary.simulations");
    check(sum(&WorkerRow::windows) == s.windows,
          "per-worker windows do not sum to summary.windows");
    // A resumed campaign's workers report only the resumed half;
    // the restored hits make up the difference (0 on fresh runs).
    check(sum(&WorkerRow::bugs) + s.reports_restored ==
              s.total_reports,
          "per-worker bug reports plus summary.reports_restored do "
          "not sum to summary.total_reports");
    check(s.reports_restored <= s.total_reports,
          "summary.reports_restored exceeds summary.total_reports");
    check(s.bugs_restored <= s.distinct_bugs,
          "summary.bugs_restored exceeds summary.distinct_bugs");

    uint64_t trigger_windows = 0;
    for (const auto &row : log.triggers)
        trigger_windows += row.windows;
    check(trigger_windows == s.windows,
          "per-trigger windows do not sum to summary.windows");

    check(log.bugs.size() == s.distinct_bugs,
          "bug record count does not match summary.distinct_bugs");
    uint64_t hits = 0;
    for (const auto &row : log.bugs)
        hits += row.hits;
    check(hits == s.total_reports,
          "bug hits do not sum to summary.total_reports");

    check(log.epochs.size() == s.epochs,
          "epoch record count does not match summary.epochs");
    for (size_t i = 0; i < log.epochs.size(); ++i) {
        if (log.epochs[i].epoch != i) {
            problems.push_back(
                "epoch records are not consecutive from 0");
            break;
        }
    }
    check(s.batches_stolen <= s.batches,
          "summary.batches_stolen exceeds summary.batches");
    // Robustness accounting: every failed batch was still counted in
    // summary.batches, each watchdog kill consumed one attempt
    // (batches + batch_retries bounds the attempt total), and a seed
    // only reaches quarantine when the batch replaying it failed.
    check(s.batches_failed <= s.batches,
          "summary.batches_failed exceeds summary.batches");
    check(s.batch_deadline_kills <= s.batches + s.batch_retries,
          "summary.batch_deadline_kills exceeds total batch "
          "attempts");
    check(s.quarantined_seeds == 0 || s.batches_failed > 0,
          "summary.quarantined_seeds is non-zero with no failed "
          "batches");
    check(s.kinds_disabled <= s.workers,
          "summary.kinds_disabled exceeds summary.workers");
    uint64_t stolen = 0;
    for (const auto &row : log.epochs)
        stolen += row.batches_stolen;
    check(stolen == s.batches_stolen,
          "per-epoch batches_stolen do not sum to "
          "summary.batches_stolen");
    if (!log.epochs.empty()) {
        const EpochRow &last = log.epochs.back();
        check(last.iterations == s.iterations,
              "final epoch iterations do not match "
              "summary.iterations");
        check(last.coverage_points == s.coverage_points,
              "final epoch coverage does not match "
              "summary.coverage_points");
        check(last.distinct_bugs == s.distinct_bugs,
              "final epoch distinct_bugs does not match "
              "summary.distinct_bugs");
    }

    // Heartbeats are cumulative snapshots: seq strictly increases,
    // and wall_seconds, every counter and every histogram total is
    // non-decreasing in emission order. Gauges (corpus size etc.)
    // are last-value samples and legitimately fluctuate.
    for (size_t i = 0; i < log.heartbeats.size(); ++i) {
        const HeartbeatRow &hb = log.heartbeats[i];
        check(hb.counter(obs::Ctr::StealHits) <=
                  hb.counter(obs::Ctr::StealAttempts),
              "heartbeat steal_hits exceeds steal_attempts");
        if (i == 0)
            continue;
        const HeartbeatRow &prev = log.heartbeats[i - 1];
        check(hb.seq > prev.seq,
              "heartbeat seq values are not strictly increasing");
        check(hb.wall_seconds >= prev.wall_seconds,
              "heartbeat wall_seconds regresses");
        for (unsigned c = 0; c < obs::kNumCtrs; ++c) {
            check(hb.counters[c] >= prev.counters[c],
                  std::string("heartbeat counter \"") +
                      obs::ctrName(static_cast<obs::Ctr>(c)) +
                      "\" decreases");
        }
        for (unsigned h = 0; h < obs::kNumHists; ++h) {
            const char *name =
                obs::histName(static_cast<obs::Hist>(h));
            check(hb.hist_count[h] >= prev.hist_count[h],
                  std::string("heartbeat histogram \"") + name +
                      "\" count decreases");
            check(hb.hist_sum[h] >= prev.hist_sum[h],
                  std::string("heartbeat histogram \"") + name +
                      "\" sum decreases");
        }
        if (problems.size() > 16)
            break; // a corrupt log flood helps nobody
    }
    return problems;
}

} // namespace dejavuzz::report

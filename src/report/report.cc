#include "report/report.hh"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "util/logging.hh"

namespace dejavuzz::report {

namespace {

std::string
fmtU64(uint64_t value)
{
    return std::to_string(value);
}

std::string
fmtF64(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f", value);
    return buf;
}

/** Seconds, or "n/a" for the negative never-happened sentinel. */
std::string
fmtSeconds(double value)
{
    return value < 0.0 ? "n/a" : fmtF64(value) + " s";
}

/** Signed delta in seconds vs a baseline, "n/a" when either side
 *  never reached the milestone. */
std::string
fmtDelta(double value, double baseline)
{
    if (value < 0.0 || baseline < 0.0)
        return "n/a";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.2f s", value - baseline);
    return buf;
}

std::string
fmtRatio(uint64_t numerator, uint64_t denominator)
{
    if (denominator == 0)
        return "n/a";
    return fmtF64(static_cast<double>(numerator) /
                  static_cast<double>(denominator));
}

ReportTable
overviewTable(const std::vector<CampaignLog> &logs)
{
    ReportTable table;
    table.title = "Campaign overview";
    table.header = {"campaign", "policy", "workers", "master_seed",
                    "iterations", "wall_s", "iters_per_s",
                    "coverage_points", "distinct_bugs",
                    "corpus_size", "corpus_preloaded",
                    "corpus_minimized", "coverage_preloaded",
                    "bugs_restored", "steals"};
    for (const auto &log : logs) {
        const SummaryRow &s = log.summary;
        table.rows.push_back({log.name, s.policy,
                              fmtU64(s.workers),
                              fmtU64(s.master_seed),
                              fmtU64(s.iterations),
                              fmtF64(s.wall_seconds),
                              fmtF64(s.iters_per_sec),
                              fmtU64(s.coverage_points),
                              fmtU64(s.distinct_bugs),
                              fmtU64(s.corpus_size),
                              fmtU64(s.corpus_preloaded),
                              fmtU64(s.corpus_minimized),
                              fmtU64(s.coverage_preloaded),
                              fmtU64(s.bugs_restored),
                              fmtU64(s.steals)});
    }
    return table;
}

ReportTable
schedulerTable(const std::vector<CampaignLog> &logs)
{
    // Scheduler occupancy: how much of the fleet's time the
    // work-stealing scheduler kept busy. Campaigns that ran no batch
    // contribute no rows (an all-empty table is skipped by the
    // renderers).
    ReportTable table;
    table.title = "Scheduler occupancy";
    table.header = {"campaign", "batch", "batches",
                    "batches_stolen", "stolen_pct", "steal_idle_s",
                    "idle_per_worker_s"};
    for (const auto &log : logs) {
        const SummaryRow &s = log.summary;
        if (s.batches == 0)
            continue;
        const double idle_s =
            static_cast<double>(s.steal_idle_ns) / 1e9;
        const double per_worker =
            s.workers > 0
                ? idle_s / static_cast<double>(s.workers)
                : idle_s;
        char pct[32];
        std::snprintf(pct, sizeof(pct), "%.1f%%",
                      100.0 *
                          static_cast<double>(s.batches_stolen) /
                          static_cast<double>(s.batches));
        table.rows.push_back(
            {log.name, fmtU64(s.batch), fmtU64(s.batches),
             fmtU64(s.batches_stolen), pct, fmtF64(idle_s),
             fmtF64(per_worker)});
    }
    return table;
}

ReportTable
robustnessTable(const std::vector<CampaignLog> &logs)
{
    // Fault-tolerance ledger: how often batches were retried, killed
    // by the watchdog, or written off; how many seeds were
    // quarantined and kinds disabled; plus the injected-fault and
    // checkpoint counters from the final heartbeat. Logs that never
    // exercised the machinery contribute no rows (an all-empty table
    // is skipped by the renderers).
    ReportTable table;
    table.title = "Robustness (watchdog / quarantine / checkpoints)";
    table.header = {"campaign", "batch_retries", "deadline_kills",
                    "batches_failed", "quarantined_seeds",
                    "kinds_disabled", "faults_injected",
                    "checkpoint_generations"};
    for (const auto &log : logs) {
        const SummaryRow &s = log.summary;
        uint64_t faults = 0;
        uint64_t checkpoints = 0;
        if (!log.heartbeats.empty()) {
            const HeartbeatRow &hb = log.heartbeats.back();
            faults = hb.counter(obs::Ctr::FaultsInjected);
            checkpoints =
                hb.counter(obs::Ctr::CheckpointGenerations);
        }
        if (s.batch_retries == 0 && s.batch_deadline_kills == 0 &&
            s.batches_failed == 0 && s.quarantined_seeds == 0 &&
            s.kinds_disabled == 0 && faults == 0 &&
            checkpoints == 0) {
            continue;
        }
        table.rows.push_back({log.name, fmtU64(s.batch_retries),
                              fmtU64(s.batch_deadline_kills),
                              fmtU64(s.batches_failed),
                              fmtU64(s.quarantined_seeds),
                              fmtU64(s.kinds_disabled),
                              fmtU64(faults), fmtU64(checkpoints)});
    }
    return table;
}

ReportTable
heartbeatTimingTable(const std::vector<CampaignLog> &logs)
{
    // Timing breakdown from the final heartbeat of each log: where
    // the campaign's cycles went (phase spans, the moduleTaintStats
    // share of Phase 2) and how occupied the worker
    // fleet was. Logs without heartbeat records contribute no rows
    // (an all-empty table is skipped by the renderers).
    ReportTable table;
    table.title = "Timing breakdown (heartbeats)";
    table.header = {"campaign", "wall_s", "occupancy_pct",
                    "phase1_s", "phase2_s", "phase3_s",
                    "module_taint_s", "module_taint_pct_phase2",
                    "steal_hit_pct"};
    auto pct = [](double num, double den) -> std::string {
        if (den <= 0.0)
            return "n/a";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f%%",
                      100.0 * num / den);
        return buf;
    };
    for (const auto &log : logs) {
        if (log.heartbeats.empty())
            continue;
        const HeartbeatRow &hb = log.heartbeats.back();
        auto seconds = [&](obs::Hist h) {
            return static_cast<double>(hb.histSum(h)) / 1e9;
        };
        const double batch_s = seconds(obs::Hist::BatchNs);
        const double phase2_s = seconds(obs::Hist::Phase2Ns);
        const double taint_s = seconds(obs::Hist::ModuleTaintNs);
        const uint64_t workers =
            hb.gauges[static_cast<unsigned>(obs::Gauge::Workers)];
        const double fleet_s =
            hb.wall_seconds * static_cast<double>(workers);
        table.rows.push_back(
            {log.name, fmtF64(hb.wall_seconds),
             pct(batch_s, fleet_s),
             fmtF64(seconds(obs::Hist::Phase1Ns)), fmtF64(phase2_s),
             fmtF64(seconds(obs::Hist::Phase3Ns)), fmtF64(taint_s),
             pct(taint_s, phase2_s),
             pct(static_cast<double>(
                     hb.counter(obs::Ctr::StealHits)),
                 static_cast<double>(
                     hb.counter(obs::Ctr::StealAttempts)))});
    }
    return table;
}

ReportTable
configTable(const std::vector<CampaignLog> &logs)
{
    ReportTable table;
    table.title = "Per-config totals (Table 2 axes)";
    table.header = {"campaign", "config", "variant", "workers",
                    "iterations", "simulations", "windows",
                    "worker_coverage", "seeds_imported",
                    "bug_reports", "active_s"};
    for (const auto &log : logs) {
        // Group worker rows by (config, variant), preserving first
        // appearance order.
        std::vector<std::pair<std::string, std::string>> order;
        std::map<std::pair<std::string, std::string>, WorkerRow>
            groups;
        std::map<std::pair<std::string, std::string>, uint64_t>
            counts;
        for (const auto &w : log.workers) {
            auto key = std::make_pair(w.config, w.variant);
            auto [it, inserted] = groups.try_emplace(key);
            if (inserted) {
                order.push_back(key);
                it->second.config = w.config;
                it->second.variant = w.variant;
            }
            it->second.iterations += w.iterations;
            it->second.simulations += w.simulations;
            it->second.windows += w.windows;
            it->second.coverage_points += w.coverage_points;
            it->second.seeds_imported += w.seeds_imported;
            it->second.bugs += w.bugs;
            it->second.active_seconds += w.active_seconds;
            ++counts[key];
        }
        for (const auto &key : order) {
            const WorkerRow &g = groups[key];
            table.rows.push_back({log.name, g.config, g.variant,
                                  fmtU64(counts[key]),
                                  fmtU64(g.iterations),
                                  fmtU64(g.simulations),
                                  fmtU64(g.windows),
                                  fmtU64(g.coverage_points),
                                  fmtU64(g.seeds_imported),
                                  fmtU64(g.bugs),
                                  fmtF64(g.active_seconds)});
        }
    }
    return table;
}

ReportTable
triggerTable(const std::vector<CampaignLog> &logs)
{
    ReportTable table;
    table.title = "Transient-window training overhead "
                  "(Table 3 axes)";
    table.header = {"campaign", "kind", "windows",
                    "training_overhead", "effective_overhead",
                    "TO_per_window", "ETO_per_window"};
    for (const auto &log : logs) {
        for (const auto &t : log.triggers) {
            table.rows.push_back(
                {log.name, t.kind, fmtU64(t.windows),
                 fmtU64(t.training_overhead),
                 fmtU64(t.effective_overhead),
                 fmtRatio(t.training_overhead, t.windows),
                 fmtRatio(t.effective_overhead, t.windows)});
        }
    }
    return table;
}

ReportTable
bugMatrixTable(const std::vector<CampaignLog> &logs)
{
    ReportTable table;
    table.title = "Cross-campaign bug matrix (Table 5 axes)";
    table.header = {"bug"};
    for (const auto &log : logs)
        table.header.push_back(log.name);
    table.header.push_back("description");

    // Union of dedup keys, in key order; per campaign a cell shows
    // hits plus first-discovery provenance, or "-" when unseen.
    std::set<std::string> keys;
    for (const auto &log : logs) {
        for (const auto &bug : log.bugs)
            keys.insert(bug.key);
    }
    for (const auto &key : keys) {
        std::vector<std::string> row{key};
        std::string description;
        for (const auto &log : logs) {
            auto it = std::find_if(
                log.bugs.begin(), log.bugs.end(),
                [&](const BugRow &bug) { return bug.key == key; });
            if (it == log.bugs.end()) {
                row.push_back("-");
                continue;
            }
            if (description.empty())
                description = it->description;
            row.push_back(fmtU64(it->hits) + " hits (w" +
                          fmtU64(it->worker) + " e" +
                          fmtU64(it->epoch) + ")");
        }
        row.push_back(description);
        table.rows.push_back(std::move(row));
    }
    return table;
}

ReportTable
coverageGrowthTable(const std::vector<CampaignLog> &logs)
{
    ReportTable table;
    table.title = "Coverage growth (Fig 7 axes)";
    table.header = {"campaign", "epoch", "iterations",
                    "coverage_points", "distinct_bugs",
                    "corpus_size", "wall_s"};
    for (const auto &log : logs) {
        for (const auto &e : log.epochs) {
            table.rows.push_back({log.name, fmtU64(e.epoch),
                                  fmtU64(e.iterations),
                                  fmtU64(e.coverage_points),
                                  fmtU64(e.distinct_bugs),
                                  fmtU64(e.corpus_size),
                                  fmtF64(e.wall_seconds)});
        }
    }
    return table;
}

ReportTable
deltaTable(const std::vector<CampaignLog> &logs)
{
    // The common coverage milestone is the weakest campaign's final
    // coverage, so every campaign that finished has a
    // first-to-coverage time for it.
    uint64_t common = std::numeric_limits<uint64_t>::max();
    for (const auto &log : logs)
        common = std::min(common, log.summary.coverage_points);

    const CampaignLog &base = logs.front();
    const double base_cov = base.timeToCoverage(common);
    const double base_bug = base.timeToFirstBug();

    ReportTable table;
    table.title = "First-to-coverage / time-to-first-bug (vs " +
                  base.name + ", coverage milestone " +
                  fmtU64(common) + " points)";
    table.header = {"campaign", "final_coverage",
                    "time_to_milestone", "milestone_delta",
                    "time_to_first_bug", "first_bug_delta"};
    for (const auto &log : logs) {
        const double cov = log.timeToCoverage(common);
        const double bug = log.timeToFirstBug();
        table.rows.push_back(
            {log.name, fmtU64(log.summary.coverage_points),
             fmtSeconds(cov), fmtDelta(cov, base_cov),
             fmtSeconds(bug), fmtDelta(bug, base_bug)});
    }
    return table;
}

std::string
mdEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '|')
            out += "\\|";
        else if (c == '\n')
            out += ' ';
        else
            out += c;
    }
    return out;
}

std::string
renderMarkdown(const std::vector<ReportTable> &tables,
               const std::string &preamble)
{
    std::ostringstream os;
    os << preamble;
    for (const auto &table : tables) {
        if (table.rows.empty())
            continue;
        os << "\n## " << table.title << "\n\n";
        os << "|";
        for (const auto &cell : table.header)
            os << " " << mdEscape(cell) << " |";
        os << "\n|";
        for (size_t i = 0; i < table.header.size(); ++i)
            os << " --- |";
        os << "\n";
        for (const auto &row : table.rows) {
            os << "|";
            for (const auto &cell : row)
                os << " " << mdEscape(cell) << " |";
            os << "\n";
        }
    }
    return os.str();
}

std::string
csvEscape(const std::string &text)
{
    if (text.find_first_of(",\"\n") == std::string::npos)
        return text;
    std::string out = "\"";
    for (char c : text) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += '"';
    return out;
}

std::string
renderCsv(const std::vector<ReportTable> &tables)
{
    std::ostringstream os;
    for (const auto &table : tables) {
        if (table.rows.empty())
            continue;
        os << "# section: " << table.title << "\n";
        for (size_t i = 0; i < table.header.size(); ++i)
            os << (i ? "," : "") << csvEscape(table.header[i]);
        os << "\n";
        for (const auto &row : table.rows) {
            for (size_t i = 0; i < row.size(); ++i)
                os << (i ? "," : "") << csvEscape(row[i]);
            os << "\n";
        }
        os << "\n";
    }
    return os.str();
}

} // namespace

std::vector<ReportTable>
buildComparisonTables(const std::vector<CampaignLog> &logs)
{
    dv_assert(!logs.empty());
    std::vector<ReportTable> tables;
    tables.push_back(overviewTable(logs));
    tables.push_back(schedulerTable(logs));
    tables.push_back(robustnessTable(logs));
    tables.push_back(heartbeatTimingTable(logs));
    tables.push_back(configTable(logs));
    tables.push_back(triggerTable(logs));
    tables.push_back(bugMatrixTable(logs));
    tables.push_back(coverageGrowthTable(logs));
    tables.push_back(deltaTable(logs));
    return tables;
}

std::string
renderTables(const std::vector<ReportTable> &tables,
             ReportFormat format, const std::string &preamble)
{
    return format == ReportFormat::Markdown
               ? renderMarkdown(tables, preamble)
               : renderCsv(tables);
}

std::string
renderComparison(const std::vector<CampaignLog> &logs,
                 ReportFormat format)
{
    std::vector<ReportTable> tables = buildComparisonTables(logs);
    std::ostringstream preamble;
    preamble << "# DejaVuzz campaign comparison\n\n";
    preamble << "Campaigns: ";
    for (size_t i = 0; i < logs.size(); ++i) {
        if (i)
            preamble << ", ";
        preamble << "`" << logs[i].name << "`";
    }
    preamble << "\n";
    return renderTables(tables, format, preamble.str());
}

} // namespace dejavuzz::report

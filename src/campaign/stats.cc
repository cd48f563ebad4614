#include "campaign/stats.hh"

#include <cstdio>

namespace dejavuzz::campaign {

void
CampaignStats::addWorker(
    const WorkerSummary &summary,
    const std::array<core::Fuzzer::TriggerStats,
                     core::kTriggerKinds> &trigger_stats)
{
    workers.push_back(summary);
    iterations += summary.iterations;
    simulations += summary.simulations;
    windows_triggered += summary.windows_triggered;
    seeds_imported += summary.seeds_imported;
    for (unsigned k = 0; k < core::kTriggerKinds; ++k) {
        triggers[k].windows += trigger_stats[k].windows;
        triggers[k].training_overhead +=
            trigger_stats[k].training_overhead;
        triggers[k].effective_overhead +=
            trigger_stats[k].effective_overhead;
    }
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

std::string
jsonDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    return buf;
}

} // namespace

void
writeCampaignJsonl(std::ostream &os, const CampaignStats &stats,
                   const BugLedger &ledger,
                   const std::string &policy_name,
                   uint64_t master_seed,
                   const std::string &templates)
{
    for (const auto &w : stats.workers) {
        os << "{\"type\":\"worker\",\"worker\":" << w.worker
           << ",\"config\":\"" << jsonEscape(w.config)
           << "\",\"variant\":\"" << jsonEscape(w.variant)
           << "\",\"iterations\":" << w.iterations
           << ",\"simulations\":" << w.simulations
           << ",\"windows\":" << w.windows_triggered
           << ",\"coverage_points\":" << w.coverage_points
           << ",\"seeds_imported\":" << w.seeds_imported
           << ",\"bugs\":" << w.bug_reports
           << ",\"active_seconds\":" << jsonDouble(w.active_seconds)
           << "}\n";
    }

    for (unsigned k = 0; k < core::kTriggerKinds; ++k) {
        const auto &t = stats.triggers[k];
        if (t.windows == 0)
            continue;
        os << "{\"type\":\"trigger\",\"kind\":\""
           << core::triggerKindName(static_cast<core::TriggerKind>(k))
           << "\",\"windows\":" << t.windows
           << ",\"training_overhead\":" << t.training_overhead
           << ",\"effective_overhead\":" << t.effective_overhead
           << "}\n";
    }

    for (const auto &sample : stats.epoch_curve) {
        os << "{\"type\":\"epoch\",\"epoch\":" << sample.epoch
           << ",\"iterations\":" << sample.iterations
           << ",\"coverage_points\":" << sample.coverage_points
           << ",\"distinct_bugs\":" << sample.distinct_bugs
           << ",\"corpus_size\":" << sample.corpus_size
           << ",\"batches_stolen\":" << sample.batches_stolen
           << ",\"steal_idle_ns\":" << sample.steal_idle_ns
           << ",\"wall_seconds\":" << jsonDouble(sample.wall_seconds)
           << "}\n";
    }

    for (const auto &record : ledger.entries()) {
        os << "{\"type\":\"bug\",\"key\":\""
           << jsonEscape(record.report.key())
           << "\",\"description\":\""
           << jsonEscape(record.report.describe())
           << "\",\"worker\":" << record.worker
           << ",\"epoch\":" << record.epoch
           << ",\"iteration\":" << record.report.iteration
           << ",\"config\":\"" << jsonEscape(record.config)
           << "\",\"variant\":\"" << jsonEscape(record.variant)
           << "\",\"hits\":" << record.hits << "}\n";
    }

    os << "{\"type\":\"summary\",\"workers\":" << stats.workers.size()
       << ",\"policy\":\"" << jsonEscape(policy_name)
       << "\",\"master_seed\":" << master_seed
       << ",\"templates\":\"" << jsonEscape(templates)
       << "\",\"iterations\":" << stats.iterations
       << ",\"simulations\":" << stats.simulations
       << ",\"windows\":" << stats.windows_triggered
       << ",\"coverage_points\":" << stats.coverage_points
       << ",\"distinct_bugs\":" << ledger.distinct()
       << ",\"total_reports\":" << ledger.totalReports()
       << ",\"epochs\":" << stats.epochs
       << ",\"corpus_size\":" << stats.corpus_size
       << ",\"corpus_preloaded\":" << stats.corpus_preloaded
       << ",\"corpus_minimized\":" << stats.corpus_minimized
       << ",\"coverage_preloaded\":" << stats.coverage_preloaded
       << ",\"bugs_restored\":" << stats.bugs_restored
       << ",\"reports_restored\":" << stats.reports_restored
       << ",\"steals\":" << stats.steals
       << ",\"batch\":" << stats.batch_iterations
       << ",\"batches\":" << stats.batches
       << ",\"batch_retries\":" << stats.batch_retries
       << ",\"batch_deadline_kills\":" << stats.batch_deadline_kills
       << ",\"batches_failed\":" << stats.batches_failed
       << ",\"quarantined_seeds\":" << stats.quarantined_seeds
       << ",\"kinds_disabled\":" << stats.kinds_disabled
       << ",\"batches_stolen\":" << stats.batches_stolen
       << ",\"steal_idle_ns\":" << stats.steal_idle_ns
       << ",\"wall_seconds\":" << jsonDouble(stats.wall_seconds)
       << ",\"iters_per_sec\":" << jsonDouble(stats.iters_per_sec)
       << "}\n";
}

} // namespace dejavuzz::campaign

/**
 * @file
 * Typed ingestion of `triage.jsonl` (docs/campaign-format.md).
 *
 * A triage log is the flat-JSONL artifact `dejavuzz-replay --triage`
 * drops next to a campaign directory's snapshot: one `record:"cluster"` line per signature cluster, one
 * `record:"portability"` line per (bug, core-config) replay cell and
 * one `record:"poc"` line per emitted minimized PoC.
 * parseTriageLog() validates the schema strictly — unknown record
 * types, missing fields and mistyped values are errors, exactly like
 * the campaign-log parser — and buildTriageTables() turns the result
 * into report tables: the cluster inventory, the bug × config
 * portability pivot and the PoC shrink accounting.
 */

#ifndef DEJAVUZZ_REPORT_TRIAGE_LOG_HH
#define DEJAVUZZ_REPORT_TRIAGE_LOG_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "report/report.hh"

namespace dejavuzz::report {

/** `record:"cluster"` — one signature cluster. */
struct ClusterRow
{
    std::string id;
    std::string representative;
    uint64_t size = 0;
    std::string members;    ///< ";"-joined member dedup keys
    std::string components; ///< ";"-joined union component set
};

/** `record:"portability"` — one (bug, config) replay cell. */
struct PortabilityRow
{
    std::string key;
    std::string origin;
    std::string variant;
    std::string config;
    bool reproduced = false;
    std::string observed;
};

/** `record:"poc"` — one emitted PoC and its shrink accounting. */
struct PocRow
{
    std::string cluster;
    std::string key;
    std::string config;
    std::string variant;
    std::string file;
    uint64_t packets_before = 0;
    uint64_t packets_after = 0;
    uint64_t instrs_before = 0;
    uint64_t instrs_after = 0;
    uint64_t effective_before = 0;
    uint64_t effective_after = 0;
    uint64_t oracle_calls = 0;
};

/** One parsed triage log. */
struct TriageLog
{
    std::vector<ClusterRow> clusters;
    std::vector<PortabilityRow> portability;
    std::vector<PocRow> pocs;
};

/**
 * Strictly parse a triage.jsonl stream. Returns false (diagnostic in
 * @p error when non-null) on any malformed line, unknown record type
 * or missing/mistyped field.
 */
bool parseTriageLog(std::istream &is, TriageLog &out,
                    std::string *error = nullptr);

/**
 * Build the triage report tables: "Bug clusters", the
 * "Portability matrix" pivot (one row per bug, one column per core
 * config seen in the log) and "Standalone PoCs". Tables with no rows
 * are skipped by the renderers.
 */
std::vector<ReportTable> buildTriageTables(const TriageLog &log);

} // namespace dejavuzz::report

#endif // DEJAVUZZ_REPORT_TRIAGE_LOG_HH

#include "triage/triage.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "campaign/io_util.hh"
#include "campaign/stats.hh"

namespace dejavuzz::triage {

namespace {

namespace fs = std::filesystem;
using campaign::jsonEscape;

std::string
joined(const std::vector<std::string> &items)
{
    std::string out;
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += ";";
        out += items[i];
    }
    return out;
}

} // namespace

TriageResult
triageLedger(const std::vector<campaign::BugRecord> &ledger,
             const TriageOptions &options, FuzzerCache &fuzzers)
{
    TriageResult result;
    result.ledger = ledger;
    // BugLedger::entries() is already key-sorted; canonicalize anyway
    // so triage of a hand-assembled vector (tests, merged ledgers)
    // derives the same artifacts as the real thing.
    std::sort(result.ledger.begin(), result.ledger.end(),
              [](const campaign::BugRecord &a,
                 const campaign::BugRecord &b) {
                  return a.report.key() < b.report.key();
              });

    result.clusters = clusterLedger(result.ledger, options.cluster);
    if (options.matrix)
        result.matrix = portabilityMatrix(result.ledger, fuzzers);

    for (size_t i = 0; i < result.ledger.size(); ++i) {
        campaign::BugRecord &record = result.ledger[i];
        record.cluster =
            clusterOf(result.clusters, record.report.key());
        record.reproduces_on = options.matrix
                                   ? result.matrix[i].reproducesOn()
                                   : std::vector<std::string>{};
    }

    if (options.emit_pocs) {
        for (const Cluster &cluster : result.clusters) {
            const campaign::BugRecord &rep =
                result.ledger[cluster.representative_index];
            core::Fuzzer *fuzzer =
                fuzzers.get(rep.config, rep.variant);
            if (!fuzzer)
                continue;
            PocEntry entry;
            entry.artifact.tc =
                shrinkCase(*fuzzer, rep.repro, rep.report.key(),
                           &entry.stats);
            if (!entry.stats.reproduced_initially)
                continue;
            entry.artifact.cluster = cluster.id;
            entry.artifact.key = rep.report.key();
            entry.artifact.config = rep.config;
            entry.artifact.variant = rep.variant;
            result.pocs.push_back(std::move(entry));
        }
    }
    return result;
}

void
writeTriageJsonl(std::ostream &os, const TriageResult &result)
{
    // Flat objects only — the dejavuzz-report JSON dialect has no
    // arrays or nesting, so list-valued fields join on ";" and the
    // matrix flattens to one record per (bug, config) cell.
    for (const Cluster &cluster : result.clusters) {
        os << "{\"record\":\"cluster\",\"id\":\"" << cluster.id
           << "\",\"representative\":\""
           << jsonEscape(cluster.representative) << "\",\"size\":"
           << cluster.members.size() << ",\"members\":\""
           << jsonEscape(joined(cluster.members))
           << "\",\"components\":\""
           << jsonEscape(joined(componentNames(cluster.signature)))
           << "\"}\n";
    }
    for (const BugPortability &row : result.matrix) {
        for (const PortabilityCell &cell : row.cells) {
            os << "{\"record\":\"portability\",\"key\":\""
               << jsonEscape(row.key) << "\",\"origin\":\""
               << jsonEscape(row.origin_config)
               << "\",\"variant\":\"" << jsonEscape(row.variant)
               << "\",\"config\":\"" << jsonEscape(cell.config)
               << "\",\"reproduced\":"
               << (cell.reproduced ? "true" : "false")
               << ",\"observed\":\"" << jsonEscape(cell.observed)
               << "\"}\n";
        }
    }
    for (const PocEntry &poc : result.pocs) {
        os << "{\"record\":\"poc\",\"cluster\":\""
           << poc.artifact.cluster << "\",\"key\":\""
           << jsonEscape(poc.artifact.key) << "\",\"config\":\""
           << jsonEscape(poc.artifact.config) << "\",\"variant\":\""
           << jsonEscape(poc.artifact.variant) << "\",\"file\":\""
           << jsonEscape("pocs/" + pocFileName(poc.artifact.cluster))
           << "\",\"packets_before\":" << poc.stats.packets_before
           << ",\"packets_after\":" << poc.stats.packets_after
           << ",\"instrs_before\":" << poc.stats.instrs_before
           << ",\"instrs_after\":" << poc.stats.instrs_after
           << ",\"effective_before\":" << poc.stats.effective_before
           << ",\"effective_after\":" << poc.stats.effective_after
           << ",\"oracle_calls\":" << poc.stats.oracle_calls
           << "}\n";
    }
}

bool
writePocs(const std::string &dir, const TriageResult &result,
          std::string *error)
{
    const fs::path poc_dir = fs::path(dir) / "pocs";
    std::error_code ec;
    fs::create_directories(poc_dir, ec);
    if (ec) {
        if (error)
            *error = "cannot create " + poc_dir.string() + ": " +
                     ec.message();
        return false;
    }
    for (const PocEntry &poc : result.pocs) {
        const fs::path path =
            poc_dir / pocFileName(poc.artifact.cluster);
        {
            std::ofstream os(path, std::ios::binary);
            if (!os) {
                if (error)
                    *error = "cannot open " + path.string();
                return false;
            }
            writePocFile(os, poc.artifact);
            if (!os) {
                if (error)
                    *error = "write failed for " + path.string();
                return false;
            }
        }
        // Read-back verification: the file on disk must parse and
        // carry the exact same test case we minimized.
        std::ifstream is(path, std::ios::binary);
        PocArtifact loaded;
        std::string parse_error;
        if (!readPocFile(is, loaded, &parse_error)) {
            if (error)
                *error = path.string() +
                         " failed read-back: " + parse_error;
            return false;
        }
        if (loaded.key != poc.artifact.key ||
            campaign::hashTestCase(loaded.tc) !=
                campaign::hashTestCase(poc.artifact.tc)) {
            if (error)
                *error = path.string() +
                         " round-trip mismatch against the "
                         "minimized case";
            return false;
        }
    }
    return true;
}

} // namespace dejavuzz::triage

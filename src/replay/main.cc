/**
 * @file
 * The `dejavuzz-replay` CLI: turn a saved campaign directory into a
 * deterministic regression suite and a triage pipeline.
 *
 *   dejavuzz-replay DIR                # replay every ledger bug
 *   dejavuzz-replay DIR --require-bugs # also fail on an empty ledger
 *   dejavuzz-replay DIR --triage       # cluster + portability matrix
 *                                      #   -> DIR/triage.jsonl
 *   dejavuzz-replay DIR --triage --emit-pocs
 *                                      # + minimized PoCs -> DIR/pocs/
 *   dejavuzz-replay --poc FILE [--poc FILE ...]
 *                                      # replay standalone PoC files
 *
 * Each bug recorded in DIR's checkpoint is re-executed through the
 * Phase-2/Phase-3 pipeline from its saved reproducer test case; the
 * run succeeds only when 100% of signatures reproduce bit-identically
 * (and, under --require-bugs, the ledger is non-empty — the mode CI
 * regression gates use, so a silently-empty campaign cannot pass).
 * Triage output is a pure function of the campaign directory: two
 * runs produce byte-identical triage.jsonl and PoC files.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/campaign_dir.hh"
#include "obs/telemetry.hh"
#include "replay/replay.hh"
#include "triage/triage.hh"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
        "usage: %s [CAMPAIGN_DIR] [options]\n"
        "\n"
        "  --require-bugs   fail when the ledger is empty (CI gate)\n"
        "  --triage         cluster the ledger and write "
        "CAMPAIGN_DIR/triage.jsonl\n"
        "  --matrix         with --triage: replay every bug on every\n"
        "                   registered core config (default on)\n"
        "  --no-matrix      with --triage: skip the portability "
        "matrix\n"
        "  --emit-pocs      with --triage: shrink one PoC per "
        "cluster\n"
        "                   into CAMPAIGN_DIR/pocs/\n"
        "  --threshold X    cluster similarity threshold "
        "(default 0.5)\n"
        "  --poc FILE       replay a standalone PoC file "
        "(repeatable;\n"
        "                   CAMPAIGN_DIR not required)\n"
        "  --trace-out PATH write a Chrome trace-event JSON of the\n"
        "                   replay (one span per bug; open in "
        "Perfetto)\n"
        "  --quiet          only print the final summary line\n"
        "  --help           this text\n",
        argv0);
}

/** Replay one standalone PoC file; true when it reproduces. */
bool
replayPoc(const std::string &path,
          dejavuzz::triage::FuzzerCache &fuzzers, bool quiet)
{
    namespace triage = dejavuzz::triage;
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        std::fprintf(stderr, "  [FAIL] %s: cannot open\n",
                     path.c_str());
        return false;
    }
    triage::PocArtifact poc;
    std::string error;
    if (!triage::readPocFile(is, poc, &error)) {
        std::fprintf(stderr, "  [FAIL] %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    dejavuzz::core::Fuzzer *fuzzer =
        fuzzers.get(poc.config, poc.variant, &error);
    if (!fuzzer) {
        std::fprintf(stderr, "  [FAIL] %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    const auto outcome = fuzzer->replayCase(poc.tc);
    const std::string observed =
        outcome.timed_out
            ? "replay-timeout"
            : outcome.report.has_value()
                  ? outcome.report->key()
                  : (outcome.window_ok ? "no-leak"
                                       : "window-not-triggered");
    const bool ok = observed == poc.key;
    if (!quiet || !ok) {
        std::fprintf(stderr, "  [%s] %s (%s, %s)%s%s\n",
                     ok ? "ok" : "FAIL", path.c_str(),
                     poc.config.c_str(), poc.variant.c_str(),
                     ok ? "" : " -> ", ok ? "" : observed.c_str());
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir;
    std::string trace_out_path;
    std::vector<std::string> poc_paths;
    bool require_bugs = false;
    bool quiet = false;
    bool triage = false;
    bool matrix = true;
    bool emit_pocs = false;
    double threshold = 0.5;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--require-bugs") {
            require_bugs = true;
        } else if (arg == "--triage") {
            triage = true;
        } else if (arg == "--matrix") {
            matrix = true;
        } else if (arg == "--no-matrix") {
            matrix = false;
        } else if (arg == "--emit-pocs") {
            triage = true;
            emit_pocs = true;
        } else if (arg == "--threshold") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--threshold needs a value\n");
                return 2;
            }
            char *end = nullptr;
            threshold = std::strtod(argv[++i], &end);
            // The negated range test also rejects nan.
            if (!end || *end != '\0' ||
                !(threshold >= 0.0 && threshold <= 1.0)) {
                std::fprintf(stderr,
                             "--threshold must be in [0, 1]\n");
                return 2;
            }
        } else if (arg == "--poc") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--poc needs a value\n");
                return 2;
            }
            poc_paths.push_back(argv[++i]);
        } else if (arg == "--trace-out") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--trace-out needs a value\n");
                return 2;
            }
            trace_out_path = argv[++i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        } else if (dir.empty()) {
            dir = arg;
        } else {
            std::fprintf(stderr, "unexpected argument %s\n",
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (dir.empty() && poc_paths.empty()) {
        usage(argv[0]);
        return 2;
    }
    if (dir.empty() && (triage || require_bugs)) {
        std::fprintf(stderr,
                     "--triage/--require-bugs need a CAMPAIGN_DIR\n");
        return 2;
    }

    // Standalone PoC mode: no campaign directory involved.
    if (dir.empty()) {
        dejavuzz::triage::FuzzerCache fuzzers;
        size_t ok = 0;
        for (const std::string &path : poc_paths)
            ok += replayPoc(path, fuzzers, quiet) ? 1 : 0;
        std::fprintf(stderr, "replay: %zu/%zu PoCs reproduced\n", ok,
                     poc_paths.size());
        return ok == poc_paths.size() ? 0 : 1;
    }

    std::ofstream trace_file;
    if (!trace_out_path.empty()) {
        trace_file.open(trace_out_path,
                        std::ios::out | std::ios::trunc);
        if (!trace_file) {
            std::fprintf(stderr,
                         "cannot open --trace-out %s for writing\n",
                         trace_out_path.c_str());
            return 1;
        }
        dejavuzz::obs::enableTrace(true);
    }

    dejavuzz::replay::ReplaySummary summary;
    std::string error;
    std::string note;
    if (!dejavuzz::replay::replayCampaignDir(dir, summary, &error,
                                             &note)) {
        std::fprintf(stderr, "dejavuzz-replay: %s\n", error.c_str());
        return 1;
    }
    if (!note.empty())
        std::fprintf(stderr, "dejavuzz-replay: %s\n", note.c_str());

    if (!trace_out_path.empty()) {
        dejavuzz::obs::writeChromeTrace(
            trace_file, dejavuzz::obs::takeTraceEvents());
        trace_file.flush();
        if (!trace_file) {
            std::fprintf(stderr, "write to --trace-out %s failed\n",
                         trace_out_path.c_str());
            return 1;
        }
    }

    if (!quiet) {
        for (const auto &bug : summary.bugs) {
            std::fprintf(stderr, "  [%s] %s (%s, %s, %.3fs)%s%s\n",
                         bug.reproduced ? "ok" : "FAIL",
                         bug.key.c_str(), bug.config.c_str(),
                         bug.variant.c_str(), bug.seconds,
                         bug.reproduced ? "" : " -> ",
                         bug.reproduced ? "" : bug.observed.c_str());
        }
    }

    int exit_code = 0;

    if (triage) {
        namespace tr = dejavuzz::triage;
        namespace campaign = dejavuzz::campaign;
        campaign::CampaignMeta meta;
        campaign::CampaignCheckpoint checkpoint;
        std::string triage_note;
        if (!campaign::loadCampaignSnapshot(dir, meta, checkpoint,
                                            &error, &triage_note)) {
            std::fprintf(stderr, "dejavuzz-replay: %s\n",
                         error.c_str());
            return 1;
        }
        if (!triage_note.empty())
            std::fprintf(stderr, "dejavuzz-replay: %s\n",
                         triage_note.c_str());
        tr::TriageOptions options;
        options.cluster.threshold = threshold;
        options.matrix = matrix;
        options.emit_pocs = emit_pocs;
        tr::FuzzerCache fuzzers;
        tr::TriageResult result =
            tr::triageLedger(checkpoint.ledger, options, fuzzers);

        const std::string jsonl_path = dir + "/triage.jsonl";
        std::ofstream jsonl(jsonl_path,
                            std::ios::out | std::ios::trunc);
        if (!jsonl) {
            std::fprintf(stderr,
                         "dejavuzz-replay: cannot open %s\n",
                         jsonl_path.c_str());
            return 1;
        }
        tr::writeTriageJsonl(jsonl, result);
        jsonl.flush();
        if (!jsonl) {
            std::fprintf(stderr,
                         "dejavuzz-replay: write to %s failed\n",
                         jsonl_path.c_str());
            return 1;
        }
        if (emit_pocs &&
            !tr::writePocs(dir, result, &error)) {
            std::fprintf(stderr, "dejavuzz-replay: %s\n",
                         error.c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "triage: %zu bugs -> %zu clusters, %zu PoCs "
                     "(%s)\n",
                     result.ledger.size(), result.clusters.size(),
                     result.pocs.size(), jsonl_path.c_str());
    }

    std::string verdict;
    const int replay_code = dejavuzz::replay::replayVerdict(
        summary, require_bugs, verdict);
    std::fprintf(stderr, "%s\n", verdict.c_str());
    return replay_code != 0 ? replay_code : exit_code;
}

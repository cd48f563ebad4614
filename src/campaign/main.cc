/**
 * @file
 * The `dejavuzz` campaign CLI: sharded multi-worker fuzzing with a
 * shared corpus, fleet-global coverage merging and deduplicated bug
 * reporting.
 *
 *   dejavuzz --workers 4 --iters 4000 --out campaign.jsonl
 *   dejavuzz --workers 8 --policy sweep --seconds 60
 *   dejavuzz --workers 5 --policy ablation --core boom
 *   dejavuzz --workers 4 --iters 4000 --campaign-dir day1 --minimize
 *   dejavuzz --workers 4 --iters 8000 --campaign-dir day1   # resume
 *   dejavuzz --workers 4 --iters 4000 --master-seed 2 \
 *            --corpus-in day1 --campaign-dir day2           # seeded
 *
 * The JSONL log (stdout by default) carries worker, trigger, epoch,
 * bug and summary records (docs/campaign-format.md); the
 * human-readable digest goes to stderr. --campaign-dir persists the
 * log, corpus, coverage/ledger snapshot and a meta.json under one
 * directory; pointing a matching invocation at it later continues
 * the campaign exactly where it stopped (a mismatched invocation
 * errors out instead of overwriting). --corpus-in seeds a new
 * campaign with a saved directory's corpus. dejavuzz-replay
 * re-executes a directory's bug ledger as a regression suite and
 * triages it.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>

#include "campaign/campaign_dir.hh"
#include "campaign/faults.hh"
#include "campaign/orchestrator.hh"
#include "core/seed.hh"
#include "obs/telemetry.hh"
#include "uarch/config.hh"
#include "util/parse.hh"

namespace {

using dejavuzz::parseDouble;
using dejavuzz::parseUint;
using dejavuzz::campaign::CampaignOptions;
using dejavuzz::campaign::CampaignOrchestrator;
using dejavuzz::campaign::CampaignStats;
using dejavuzz::campaign::ShardPolicy;

void
usage(const char *argv0)
{
    std::fprintf(stderr,
        "usage: %s [options]\n"
        "\n"
        "  --workers N        shards: independent fuzzers with their "
        "own RNG streams and provenance (default 4);\n"
        "                     executor threads come from the CPU set "
        "(at least one per shard), not from N\n"
        "  --policy P         replicas | sweep | ablation | heads "
        "(default replicas)\n"
        "                     heads: workers own disjoint uarch "
        "subspaces (predictors/caches/tlb/exceptions), each with\n"
        "                     its own attack templates and a "
        "head-local coverage map\n"
        "  --core C           boom | xiangshan base config "
        "(default boom)\n"
        "  --templates LIST   comma-separated attack templates every "
        "worker draws seeds from: same-domain | meltdown-supervisor\n"
        "                     | priv-transition | double-fetch | all "
        "(default same-domain, the implicit single-model baseline;\n"
        "                     incompatible with --policy heads, "
        "which assigns per-head template sets)\n"
        "  --iters N          total iteration budget across workers "
        "(default 4000; 0 = unbounded)\n"
        "  --seconds S        wall-clock budget in seconds "
        "(default off)\n"
        "  --epoch N          per-worker iterations per sync epoch "
        "(default 200)\n"
        "  --batch N          iterations per scheduler batch "
        "(default 32)\n"
        "  --batch-retries N  re-execute a crashed/timed-out batch "
        "up to N times with the identical spec (default 2);\n"
        "                     a batch that exhausts its retries is "
        "skipped and its corpus seeds are quarantined\n"
        "  --batch-deadline S per-batch wall deadline in seconds "
        "(default 0 = no watchdog); a deadline-killed attempt's\n"
        "                     partial result is discarded and the "
        "batch retried\n"
        "  --kind-disable N   disable a (config,variant) kind "
        "fleet-wide after N consecutive failed batches\n"
        "                     (default 8; 0 = never)\n"
        "  --autosave-sec S   with --campaign-dir: save a crash-safe "
        "checkpoint generation every S seconds (default 0 = only\n"
        "                     at campaign end); a SIGKILL loses at "
        "most one interval\n"
        "  --inject-faults SPEC  arm deterministic failpoints, e.g. "
        "seed=7,batch-throw=0.05,enospc=1:2\n"
        "                     (kinds: batch-throw batch-hang "
        "short-write torn-rename enospc; docs/robustness.md)\n"
        "  --master-seed X    campaign master seed (default 1)\n"
        "  --out PATH         JSONL output file (default stdout)\n"
        "  --corpus-in DIR    seed a new campaign with the corpus "
        "of the campaign directory DIR (read only)\n"
        "  --campaign-dir DIR self-contained campaign directory "
        "(log + corpus + snapshot + meta.json); resumes the saved\n"
        "                     campaign when DIR already holds one "
        "with a matching configuration\n"
        "  --minimize         with --campaign-dir: distill the "
        "corpus before saving (drop content duplicates and\n"
        "                     coverage-subsumed entries)\n"
        "  --trace-out PATH   write a Chrome trace-event JSON of "
        "the run (open in Perfetto; docs/observability.md)\n"
        "  --heartbeat-sec S  append a telemetry heartbeat record "
        "to the JSONL log every S seconds (observable live with\n"
        "                     tail -f; one final record is always "
        "written at campaign end)\n"
        "  --quiet            suppress the stderr digest\n"
        "  --help             this text\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    CampaignOptions options;
    options.base_config = dejavuzz::uarch::smallBoomConfig();
    std::string out_path;
    std::string corpus_in_dir;
    std::string campaign_dir;
    std::string trace_out_path;
    std::string fault_spec;
    bool minimize = false;
    bool templates_flag = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        auto bad = [&]() {
            std::fprintf(stderr, "bad value for %s\n", arg.c_str());
            std::exit(2);
        };

        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--workers") {
            if (!parseUint(value(), options.workers) ||
                options.workers == 0) {
                bad();
            }
        } else if (arg == "--policy") {
            const std::string policy = value();
            if (policy == "replicas")
                options.policy = ShardPolicy::Replicas;
            else if (policy == "sweep")
                options.policy = ShardPolicy::ConfigSweep;
            else if (policy == "ablation")
                options.policy = ShardPolicy::AblationMatrix;
            else if (policy == "heads")
                options.policy = ShardPolicy::Heads;
            else
                bad();
        } else if (arg == "--core") {
            const std::string core = value();
            if (core == "boom")
                options.base_config =
                    dejavuzz::uarch::smallBoomConfig();
            else if (core == "xiangshan")
                options.base_config =
                    dejavuzz::uarch::xiangshanMinimalConfig();
            else
                bad();
        } else if (arg == "--templates") {
            const std::string list = value();
            uint32_t mask = 0;
            size_t pos = 0;
            for (;;) {
                const size_t comma = list.find(',', pos);
                const std::string name =
                    list.substr(pos, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - pos);
                dejavuzz::core::AttackTemplate tmpl;
                if (name == "all")
                    mask |= dejavuzz::core::kAllModelMask;
                else if (dejavuzz::core::parseAttackTemplateName(
                             name, tmpl))
                    mask |= dejavuzz::core::modelBit(tmpl);
                else
                    bad();
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
            if (mask == 0)
                bad();
            options.fuzzer.model_mask = mask;
            templates_flag = true;
        } else if (arg == "--iters") {
            if (!parseUint(value(), options.total_iterations))
                bad();
        } else if (arg == "--seconds") {
            if (!parseDouble(value(), options.wall_seconds) ||
                options.wall_seconds < 0.0) {
                bad();
            }
        } else if (arg == "--epoch") {
            if (!parseUint(value(), options.epoch_iterations) ||
                options.epoch_iterations == 0) {
                bad();
            }
        } else if (arg == "--batch") {
            if (!parseUint(value(), options.batch_iterations) ||
                options.batch_iterations == 0) {
                bad();
            }
        } else if (arg == "--batch-retries") {
            if (!parseUint(value(), options.batch_retries))
                bad();
        } else if (arg == "--batch-deadline") {
            if (!parseDouble(value(), options.batch_deadline_sec) ||
                options.batch_deadline_sec < 0.0) {
                bad();
            }
        } else if (arg == "--kind-disable") {
            if (!parseUint(value(), options.kind_disable_failures))
                bad();
        } else if (arg == "--autosave-sec") {
            if (!parseDouble(value(), options.autosave_sec) ||
                options.autosave_sec < 0.0) {
                bad();
            }
        } else if (arg == "--inject-faults") {
            fault_spec = value();
        } else if (arg == "--master-seed") {
            if (!parseUint(value(), options.master_seed))
                bad();
        } else if (arg == "--out") {
            out_path = value();
        } else if (arg == "--corpus-in") {
            corpus_in_dir = value();
        } else if (arg == "--campaign-dir") {
            campaign_dir = value();
        } else if (arg == "--trace-out") {
            trace_out_path = value();
        } else if (arg == "--heartbeat-sec") {
            if (!parseDouble(value(), options.heartbeat_sec) ||
                options.heartbeat_sec < 0.0) {
                bad();
            }
        } else if (arg == "--minimize") {
            minimize = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (options.total_iterations == 0 &&
        options.wall_seconds <= 0.0) {
        std::fprintf(stderr,
                     "need an --iters or --seconds budget\n");
        return 2;
    }
    if (templates_flag && options.policy == ShardPolicy::Heads) {
        // Silently ignoring the flag under heads would be exactly
        // the dead-knob class the wiring audit guards against.
        std::fprintf(stderr,
                     "--templates selects one fleet-wide template "
                     "set; --policy heads assigns its own per-head "
                     "sets and cannot be combined with it\n");
        return 2;
    }
    if (!campaign_dir.empty() && !out_path.empty()) {
        std::fprintf(stderr,
                     "--campaign-dir writes its own log; it cannot be "
                     "combined with --out\n");
        return 2;
    }
    if (minimize && campaign_dir.empty()) {
        std::fprintf(stderr,
                     "--minimize distills the corpus a campaign "
                     "directory saves; it needs --campaign-dir\n");
        return 2;
    }
    if (options.autosave_sec > 0.0 && campaign_dir.empty()) {
        std::fprintf(stderr,
                     "--autosave-sec checkpoints into a campaign "
                     "directory; it needs --campaign-dir\n");
        return 2;
    }
    if (!corpus_in_dir.empty() && !campaign_dir.empty() &&
        dejavuzz::campaign::campaignDirExists(campaign_dir)) {
        // The resumed checkpoint already holds whatever a previous
        // --corpus-in admitted; preloading again would double it.
        std::fprintf(stderr,
                     "--corpus-in seeds a new campaign; --campaign-dir "
                     "%s already holds one to resume\n",
                     campaign_dir.c_str());
        return 2;
    }
    if (!fault_spec.empty()) {
        std::string error;
        if (!dejavuzz::campaign::armFaults(fault_spec, &error)) {
            std::fprintf(stderr, "bad --inject-faults spec: %s\n",
                         error.c_str());
            return 2;
        }
    }

    // Load --corpus-in before touching any output path: opening the
    // outputs truncates them, and a bad seed directory must not
    // destroy a previous run's log. The seed directory is only read
    // (integrity-checked, with the torn-generation fallback), never
    // swept or written.
    dejavuzz::campaign::CorpusFile seed_corpus;
    if (!corpus_in_dir.empty()) {
        dejavuzz::campaign::LoadedCampaignDir seed;
        std::string error;
        std::string note;
        if (!dejavuzz::campaign::loadCampaignDir(corpus_in_dir, seed,
                                                 &error, &note)) {
            std::fprintf(stderr, "cannot read --corpus-in %s: %s\n",
                         corpus_in_dir.c_str(), error.c_str());
            return 1;
        }
        if (!note.empty())
            std::fprintf(stderr, "corpus-in: %s\n", note.c_str());
        seed_corpus = std::move(seed.corpus);
    }

    // Resolve the campaign directory up front: a directory holding a
    // completed campaign is resumed — but only by an invocation whose
    // configuration matches its meta.json; anything else errors out
    // rather than silently overwriting the saved campaign.
    bool resuming = false;
    bool created_campaign_dir = false;
    dejavuzz::campaign::LoadedCampaignDir saved;
    if (!campaign_dir.empty()) {
        if (dejavuzz::campaign::campaignDirExists(campaign_dir)) {
            // Crash debris first: a SIGKILL mid-save can leave *.tmp
            // files behind; they are never part of a valid
            // generation and must not accumulate across resumes.
            size_t swept =
                dejavuzz::campaign::sweepCampaignDir(campaign_dir);
            if (swept > 0 && !quiet) {
                std::fprintf(stderr,
                    "campaign-dir: swept %zu stale .tmp file%s from "
                    "%s\n",
                    swept, swept == 1 ? "" : "s",
                    campaign_dir.c_str());
            }
            std::string error;
            std::string note;
            if (!dejavuzz::campaign::loadCampaignDir(
                    campaign_dir, saved, &error, &note)) {
                std::fprintf(stderr,
                             "cannot resume --campaign-dir %s: %s\n",
                             campaign_dir.c_str(), error.c_str());
                return 1;
            }
            if (!note.empty()) {
                // Torn-generation fallback: always worth a line,
                // even under --quiet — the user should know the
                // latest save did not survive.
                std::fprintf(stderr, "campaign-dir: %s\n",
                             note.c_str());
            }
            std::vector<std::string> mismatches =
                dejavuzz::campaign::metaMismatches(
                    saved.meta,
                    dejavuzz::campaign::metaFromOptions(options));
            if (!mismatches.empty()) {
                std::fprintf(stderr,
                    "refusing to overwrite --campaign-dir %s: the "
                    "saved campaign's configuration does not match "
                    "this invocation\n",
                    campaign_dir.c_str());
                for (const std::string &line : mismatches)
                    std::fprintf(stderr, "  %s\n", line.c_str());
                return 1;
            }
            resuming = true;
        } else {
            // Fail on an unwritable destination before fuzzing.
            std::error_code ec;
            created_campaign_dir =
                std::filesystem::create_directories(campaign_dir,
                                                    ec);
            if (ec) {
                std::fprintf(stderr,
                             "cannot create --campaign-dir %s: %s\n",
                             campaign_dir.c_str(),
                             ec.message().c_str());
                return 1;
            }
        }
    }
    // Error paths between here and the first save must not leave a
    // freshly created, empty campaign directory behind: a later
    // invocation would see it as an (unresumable) destination. The
    // non-recursive remove is a no-op once anything was written.
    auto discardEmptyCampaignDir = [&]() {
        if (created_campaign_dir) {
            std::error_code ec;
            std::filesystem::remove(campaign_dir, ec);
        }
    };

    // Open every output before the campaign runs: an unwritable
    // --out must fail up front, not after minutes of fuzzing whose
    // results would then be lost.
    std::ofstream out_file;
    if (!out_path.empty()) {
        out_file.open(out_path,
                      std::ios::out | std::ios::trunc);
        if (!out_file) {
            std::fprintf(stderr, "cannot open --out %s for writing\n",
                         out_path.c_str());
            return 1;
        }
    }
    std::ofstream trace_file;
    if (!trace_out_path.empty()) {
        trace_file.open(trace_out_path,
                        std::ios::out | std::ios::trunc);
        if (!trace_file) {
            std::fprintf(stderr,
                         "cannot open --trace-out %s for writing\n",
                         trace_out_path.c_str());
            discardEmptyCampaignDir();
            return 1;
        }
        dejavuzz::obs::enableTrace(true);
    }

    // Heartbeats stream live into the JSONL destination so a running
    // campaign is observable with `tail -f`. The campaign-dir live
    // stream is opened only right before run() (below): the resume
    // no-op path must not truncate a saved campaign.jsonl. The
    // pointer is wired now because the orchestrator copies its
    // options at construction.
    std::ofstream live_log;
    if (options.heartbeat_sec > 0.0) {
        if (!campaign_dir.empty())
            options.heartbeat_out = &live_log;
        else if (!out_path.empty())
            options.heartbeat_out = &out_file;
        else
            options.heartbeat_out = &std::cout;
    }

    CampaignOrchestrator orchestrator(options);
    if (resuming) {
        std::string error;
        if (!orchestrator.restoreCheckpoint(saved.checkpoint,
                                            &error)) {
            std::fprintf(stderr,
                         "cannot resume --campaign-dir %s: %s\n",
                         campaign_dir.c_str(), error.c_str());
            return 1;
        }
        orchestrator.restoreCorpus(saved.corpus.entries);
        if (!quiet) {
            std::fprintf(stderr,
                "campaign-dir: resuming %s at %llu iterations, "
                "%llu epochs, %llu coverage points, %zu distinct "
                "bugs, corpus %zu\n",
                campaign_dir.c_str(),
                static_cast<unsigned long long>(
                    saved.checkpoint.iterations_done),
                static_cast<unsigned long long>(
                    saved.checkpoint.epochs_done),
                static_cast<unsigned long long>(
                    orchestrator.stats().coverage_preloaded),
                static_cast<size_t>(
                    saved.checkpoint.ledger.size()),
                orchestrator.corpus().size());
        }
        if (options.total_iterations != 0 &&
            options.total_iterations <=
                saved.checkpoint.iterations_done) {
            // A no-op resume must not rewrite the directory: it
            // would replace the saved log (epoch curve, worker
            // rollups) with a zero-iteration one. Refuse rather
            // than silently skip a requested minimization.
            std::fprintf(stderr,
                "--iters %llu does not exceed the saved campaign's "
                "%llu iterations; nothing to run — leaving %s "
                "untouched (raise --iters to extend the campaign)\n",
                static_cast<unsigned long long>(
                    options.total_iterations),
                static_cast<unsigned long long>(
                    saved.checkpoint.iterations_done),
                campaign_dir.c_str());
            if (minimize) {
                std::fprintf(stderr,
                    "--minimize was requested but runs only after "
                    "fuzzing; the saved corpus is unchanged\n");
                return 2;
            }
            return 0;
        }
    }
    if (!corpus_in_dir.empty()) {
        uint64_t admitted =
            orchestrator.preloadCorpus(seed_corpus.entries);
        if (!quiet) {
            std::fprintf(stderr,
                "corpus: preloaded %llu of %zu entries from %s "
                "(saved by master seed %llu)\n",
                static_cast<unsigned long long>(admitted),
                seed_corpus.entries.size(), corpus_in_dir.c_str(),
                static_cast<unsigned long long>(
                    seed_corpus.master_seed));
        }
    }

    std::string live_log_path;
    if (options.heartbeat_sec > 0.0 && !campaign_dir.empty()) {
        const dejavuzz::campaign::CampaignDirPaths paths =
            dejavuzz::campaign::campaignDirPaths(campaign_dir);
        // Autosaves rotate campaign.jsonl out from under an open
        // stream (the fd would follow the rename and corrupt the
        // retained .prev generation), so with --autosave-sec the
        // live heartbeats go to a side file instead; it is removed
        // after the final save. Every heartbeat is retained in the
        // saved log either way.
        live_log_path = options.autosave_sec > 0.0
                            ? campaign_dir + "/heartbeat.live.jsonl"
                            : paths.log;
        live_log.open(live_log_path,
                      std::ios::out | std::ios::trunc);
        if (!live_log) {
            std::fprintf(stderr,
                         "cannot open %s for heartbeat streaming\n",
                         live_log_path.c_str());
            discardEmptyCampaignDir();
            return 1;
        }
    }

    // Crash-safe periodic checkpoints: the orchestrator calls back
    // into saveCampaignDir at epoch barriers, writing a fresh
    // generation each time, so a SIGKILL at any instant loses at most
    // one autosave interval.
    if (!campaign_dir.empty() && options.autosave_sec > 0.0) {
        orchestrator.setAutosaveHook(
            [&campaign_dir, &orchestrator,
             &options](std::string *err) {
                return dejavuzz::campaign::saveCampaignDir(
                    campaign_dir, orchestrator, options, err);
            });
    }

    CampaignStats stats = orchestrator.run();

    if (minimize) {
        dejavuzz::campaign::SharedCorpus::MinimizeStats mstats =
            orchestrator.minimizeCorpus();
        if (!quiet) {
            std::fprintf(stderr,
                "corpus: minimized %zu -> %zu entries "
                "(%zu content duplicates, %zu coverage-subsumed)\n",
                mstats.before, mstats.kept, mstats.duplicates,
                mstats.subsumed);
        }
        stats = orchestrator.stats(); // refresh corpus_size
    }

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

    if (!campaign_dir.empty()) {
        // The live heartbeat stream is replaced wholesale by
        // saveCampaignDir's tmp+rename (which re-emits the retained
        // heartbeats ahead of the full log); close it first.
        if (live_log.is_open())
            live_log.close();
        std::string error;
        if (!dejavuzz::campaign::saveCampaignDir(
                campaign_dir, orchestrator, options, &error)) {
            std::fprintf(stderr, "cannot save --campaign-dir %s: %s\n",
                         campaign_dir.c_str(), error.c_str());
            return 1;
        }
        if (!live_log_path.empty() &&
            live_log_path != dejavuzz::campaign::campaignDirPaths(
                                 campaign_dir)
                                 .log) {
            // The heartbeat side file served its tail -f purpose;
            // every record it held is in the saved log.
            std::error_code ec;
            std::filesystem::remove(live_log_path, ec);
        }
    } else if (!out_path.empty()) {
        orchestrator.writeJsonl(out_file);
        out_file.flush();
        if (!out_file) {
            std::fprintf(stderr, "write to --out %s failed\n",
                         out_path.c_str());
            return 1;
        }
    } else {
        orchestrator.writeJsonl(std::cout);
    }

    if (!quiet) {
        std::fprintf(stderr,
            "campaign: %u workers (%s), %llu iterations "
            "in %.2fs (%.1f iters/s), %llu coverage points, %zu "
            "distinct bugs (%llu reports), corpus %llu, %llu "
            "steals, %llu/%llu batches stolen, %.2fs barrier idle\n",
            options.workers,
            dejavuzz::campaign::shardPolicyName(options.policy),
            static_cast<unsigned long long>(stats.iterations),
            stats.wall_seconds, stats.iters_per_sec,
            static_cast<unsigned long long>(stats.coverage_points),
            orchestrator.ledger().distinct(),
            static_cast<unsigned long long>(
                orchestrator.ledger().totalReports()),
            static_cast<unsigned long long>(stats.corpus_size),
            static_cast<unsigned long long>(stats.steals),
            static_cast<unsigned long long>(stats.batches_stolen),
            static_cast<unsigned long long>(stats.batches),
            static_cast<double>(stats.steal_idle_ns) / 1e9);
        if (stats.batch_retries != 0 || stats.batches_failed != 0 ||
            stats.quarantined_seeds != 0 ||
            stats.kinds_disabled != 0) {
            std::fprintf(stderr,
                "  robustness: %llu batch retries, %llu deadline "
                "kills, %llu batches failed, %llu seeds "
                "quarantined, %llu kinds disabled\n",
                static_cast<unsigned long long>(stats.batch_retries),
                static_cast<unsigned long long>(
                    stats.batch_deadline_kills),
                static_cast<unsigned long long>(
                    stats.batches_failed),
                static_cast<unsigned long long>(
                    stats.quarantined_seeds),
                static_cast<unsigned long long>(
                    stats.kinds_disabled));
        }
        for (const auto &record : orchestrator.ledger().entries()) {
            std::fprintf(stderr, "  bug [w%u e%llu x%llu] %s\n",
                         record.worker,
                         static_cast<unsigned long long>(
                             record.epoch),
                         static_cast<unsigned long long>(
                             record.hits),
                         record.report.describe().c_str());
        }
    }
    return 0;
}

/**
 * @file
 * Self-contained campaign directories (`dejavuzz --campaign-dir`).
 *
 * One directory holds everything a campaign produces and everything
 * a resume needs:
 *
 *   meta.json       — flat JSON: schema versions + the campaign
 *                     configuration (master seed, fleet shape,
 *                     scheduler grain). Written last, so a directory
 *                     with a meta.json is complete.
 *   campaign.jsonl  — the JSONL campaign log (docs/campaign-format.md).
 *   corpus.bin      — the shared corpus (SharedCorpus::saveTo).
 *   campaign.snap   — the checkpoint: coverage snapshot, shard
 *                     continuations, steal Rng, bug ledger with
 *                     reproducers (snapshot.hh).
 *
 * Resuming requires the invocation to match the saved meta.json —
 * same schema versions and same campaign configuration (budgets may
 * grow; that is how a resume extends a run). Mismatches are reported
 * as a list of human-readable differences and the directory is left
 * untouched: `dejavuzz` errors out instead of silently overwriting
 * a foreign campaign.
 */

#ifndef DEJAVUZZ_CAMPAIGN_CAMPAIGN_DIR_HH
#define DEJAVUZZ_CAMPAIGN_CAMPAIGN_DIR_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/corpus.hh"
#include "campaign/snapshot.hh"

namespace dejavuzz::campaign {

struct CampaignOptions;
class CampaignOrchestrator;

/** meta.json schema version written by writeMeta(). */
constexpr uint32_t kMetaFormatVersion = 1;

/** File names inside a campaign directory. */
struct CampaignDirPaths
{
    std::string meta;
    std::string log;
    std::string corpus;
    std::string snapshot;
    std::string quarantine; ///< poison-seed ledger (quarantine.hh)
};

CampaignDirPaths campaignDirPaths(const std::string &dir);

/** Retained previous generation of @p path ("<path>.prev"). */
std::string prevPath(const std::string &path);

/**
 * Remove stale `*.tmp` debris a crash mid-save can leave behind.
 * Returns the number of files removed. Called on open and before
 * every save; never touches completed artifacts.
 */
size_t sweepCampaignDir(const std::string &dir);

/** The persisted campaign configuration (meta.json contents). */
struct CampaignMeta
{
    uint32_t meta_version = kMetaFormatVersion;
    uint32_t corpus_version = 0;
    uint32_t snapshot_version = 0;
    uint64_t master_seed = 0;
    uint64_t workers = 0;
    std::string policy; ///< replicas | sweep | ablation | heads
    std::string core;   ///< base core config name
    uint64_t epoch_iterations = 0;
    uint64_t batch_iterations = 0;
    bool steal_batches = true;
    uint64_t steals_per_epoch = 0;
    /** Fleet-wide attack-template mask (`--templates`). */
    uint64_t model_mask = core::kLegacyModelMask;
    uint64_t corpus_shards = 0;
    uint64_t corpus_shard_cap = 0;
    /** Save-generation counter: incremented on every save (autosave
     *  or final), binding meta.json to the artifact trailers written
     *  with it. Not part of the campaign configuration — never
     *  compared by metaMismatches(). Every save writes at least 1;
     *  readMeta() rejects 0. */
    uint64_t generation = 0;
};

/** Derive the meta record of @p options (current schema versions). */
CampaignMeta metaFromOptions(const CampaignOptions &options);

/** Emit @p meta as one flat JSON object line. */
void writeMeta(std::ostream &os, const CampaignMeta &meta);

/**
 * Parse a meta.json written by saveCampaignDir(). Strict: a
 * malformed or non-flat object, a missing/mistyped field, a zero
 * generation, or trailing content fails with a diagnostic in
 * @p error (when non-null).
 */
bool readMeta(std::istream &is, CampaignMeta &out,
              std::string *error = nullptr);

/**
 * Compare a saved meta against the current invocation's. Returns
 * one human-readable line per differing field — empty means the
 * directory is resumable by this invocation. Schema versions and
 * every configuration field must match exactly (iteration/wall
 * budgets are not part of the meta: growing them is the point of a
 * resume).
 */
std::vector<std::string> metaMismatches(const CampaignMeta &saved,
                                        const CampaignMeta &current);

/** Everything loadCampaignDir() reads back. */
struct LoadedCampaignDir
{
    CampaignMeta meta;
    CorpusFile corpus;
    CampaignCheckpoint checkpoint;
};

/**
 * Whether @p dir holds a saved campaign: a meta.json, or — after a
 * crash mid-save — a retained meta.json.prev the loader can fall
 * back to. A directory that satisfies this must never be treated as
 * fresh and overwritten.
 */
bool campaignDirExists(const std::string &dir);

/**
 * Load meta.json, corpus.bin and campaign.snap from @p dir. Every
 * artifact's integrity trailer (CRC + generation) must validate and
 * all three must carry meta.json's generation; when the latest
 * generation is torn (a crash mid-save), the loader falls back to
 * the retained previous generation and reports it via @p note. Fails
 * cleanly (diagnostic in @p error) only when no complete valid
 * generation exists, a schema version this build does not speak, or
 * an artifact is corrupt beyond the tearing model.
 */
bool loadCampaignDir(const std::string &dir, LoadedCampaignDir &out,
                     std::string *error = nullptr,
                     std::string *note = nullptr);

/**
 * Load only meta.json and campaign.snap — what `dejavuzz-replay`
 * needs (reproducers live in the snapshot), so replaying a ledger
 * neither parses nor depends on the corpus artifact. Same
 * torn-generation fallback as loadCampaignDir.
 */
bool loadCampaignSnapshot(const std::string &dir, CampaignMeta &meta,
                          CampaignCheckpoint &checkpoint,
                          std::string *error = nullptr,
                          std::string *note = nullptr);

/**
 * Persist @p orchestrator into @p dir as the next save generation:
 * the JSONL log (with a CRC trailer record), the corpus and the
 * checkpoint (each with an integrity trailer), and — last, as the
 * completion marker — meta.json. When the directory already holds a
 * valid generation it is rotated to `.prev` first, so a SIGKILL at
 * any instant leaves at least one complete loadable generation.
 * Creates the directory if needed. Safe to call mid-campaign
 * (`--autosave-sec`) as well as at the end. Non-const: freshly
 * quarantined seeds are appended to quarantine.jsonl and marked
 * persisted on the orchestrator.
 */
bool saveCampaignDir(const std::string &dir,
                     CampaignOrchestrator &orchestrator,
                     const CampaignOptions &options,
                     std::string *error = nullptr);

} // namespace dejavuzz::campaign

#endif // DEJAVUZZ_CAMPAIGN_CAMPAIGN_DIR_HH

/**
 * @file
 * The triage pipeline: cluster → portability matrix → shrink → PoC.
 *
 * triageLedger() turns a raw campaign ledger into an actionable bug
 * report set: entries are clustered by signature similarity
 * (cluster.hh), every entry is replayed across all registered core
 * configs (portability.hh), and each cluster's representative
 * reproducer is delta-debugged down to a minimal standalone PoC
 * (shrink.hh, poc.hh). The result serializes to
 * `<campaign-dir>/triage.jsonl` (flat JSON records, one per line —
 * the dejavuzz-report parser's dialect) and `<campaign-dir>/pocs/`.
 *
 * Determinism contract: the pipeline is a pure function of the
 * ledger contents and options. Entries are canonicalized by dedup
 * key up front, no wall-clock or host state enters any artifact, and
 * every stage iterates in a canonical order — running `--triage`
 * twice over the same campaign directory produces byte-identical
 * triage.jsonl and PoC files (asserted in tests and CI).
 */

#ifndef DEJAVUZZ_TRIAGE_TRIAGE_HH
#define DEJAVUZZ_TRIAGE_TRIAGE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/ledger.hh"
#include "triage/cluster.hh"
#include "triage/poc.hh"
#include "triage/portability.hh"
#include "triage/shrink.hh"

namespace dejavuzz::triage {

struct TriageOptions
{
    ClusterOptions cluster;
    bool matrix = true;    ///< build the cross-config matrix
    bool emit_pocs = true; ///< shrink representatives into PoCs
};

/** One emitted PoC plus its shrink accounting. */
struct PocEntry
{
    PocArtifact artifact;
    ShrinkStats stats;
};

/** Everything one triage pass derives from a ledger. */
struct TriageResult
{
    /** The triaged entries, sorted by dedup key, with the cluster /
     *  reproduces_on annotations filled in. */
    std::vector<campaign::BugRecord> ledger;
    std::vector<Cluster> clusters;
    /** Rows aligned index-wise with `ledger`; empty when
     *  options.matrix was off. */
    std::vector<BugPortability> matrix;
    /** One per cluster, cluster order; empty when options.emit_pocs
     *  was off. A cluster whose representative fails to reproduce on
     *  its origin config emits no PoC (its minimization would have
     *  no oracle). */
    std::vector<PocEntry> pocs;
};

/**
 * Run the pipeline over @p ledger. @p fuzzers is shared so the
 * matrix, the shrinker and later PoC verification reuse simulators.
 */
TriageResult triageLedger(
    const std::vector<campaign::BugRecord> &ledger,
    const TriageOptions &options, FuzzerCache &fuzzers);

/**
 * Write one flat-JSON record per line for every cluster, matrix cell
 * and PoC in @p result — the `triage.jsonl` artifact
 * (docs/campaign-format.md). Deterministic: no timestamps, canonical
 * record order.
 */
void writeTriageJsonl(std::ostream &os, const TriageResult &result);

/**
 * Write every PoC of @p result into `<dir>/pocs/` and verify each by
 * reading it back. Returns false on the first IO or round-trip
 * failure (diagnostic in @p error when non-null).
 */
bool writePocs(const std::string &dir, const TriageResult &result,
               std::string *error = nullptr);

} // namespace dejavuzz::triage

#endif // DEJAVUZZ_TRIAGE_TRIAGE_HH

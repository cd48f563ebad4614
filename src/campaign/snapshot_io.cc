/**
 * @file
 * Checkpoint persistence: saveCheckpoint / loadCheckpoint
 * (snapshot.hh) in the "DVZSNAPS" versioned little-endian format
 * specified in docs/campaign-format.md.
 *
 * Built on the strict io_util.hh layer: every count is bounded
 * before it sizes an allocation, bitmap words are validated against
 * the declared slot counts, enum bytes are range-checked, and
 * trailing bytes fail the load — a corrupt snapshot can never half-
 * restore a campaign.
 */

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <set>

#include "campaign/io_util.hh"
#include "campaign/snapshot.hh"
#include "core/report.hh"

namespace dejavuzz::campaign {

namespace {

constexpr char kMagic[8] = {'D', 'V', 'Z', 'S', 'N', 'A', 'P', 'S'};

/** A module bitmap wider than this is not a plausible DUT shape. */
constexpr uint32_t kMaxModuleSlots = 1u << 20;

void
writeBugRecord(std::ostream &os, const BugRecord &record)
{
    const core::BugReport &report = record.report;
    bio::putU8(os, static_cast<uint8_t>(report.attack));
    bio::putU8(os, static_cast<uint8_t>(report.window));
    bio::putU8(os, static_cast<uint8_t>(report.channel));
    bio::putU8(os, report.masked_address ? 1 : 0);
    bio::putU64(os, report.seed_id);
    bio::putU64(os, report.iteration);
    bio::putU32(os, static_cast<uint32_t>(report.components.size()));
    for (const std::string &component : report.components)
        bio::putString(os, component);

    bio::putU32(os, record.worker);
    bio::putU64(os, record.epoch);
    bio::putU64(os, record.hits);
    bio::putString(os, record.config);
    bio::putString(os, record.variant);
    bio::writeTestCase(os, record.repro);
}

bool
readBugRecord(bio::Reader &in, BugRecord &record)
{
    core::BugReport &report = record.report;
    if (!in.enumByte(report.attack,
                     static_cast<unsigned>(
                         core::AttackType::DoubleFetch) +
                         1,
                     "bug.attack") ||
        !in.enumByte(report.window, core::kTriggerKinds,
                     "bug.window") ||
        !in.enumByte(report.channel,
                     static_cast<unsigned>(
                         core::LeakChannel::EncodedState) +
                         1,
                     "bug.channel") ||
        !bio::readBool(in, report.masked_address,
                       "bug.masked_address") ||
        !in.u64(report.seed_id, "bug.seed_id") ||
        !in.u64(report.iteration, "bug.iteration")) {
        return false;
    }
    uint32_t component_count = 0;
    if (!in.count(component_count, bio::kMaxVectorItems,
                  "bug.components")) {
        return false;
    }
    report.components.clear();
    for (uint32_t c = 0; c < component_count; ++c) {
        std::string component;
        if (!in.str(component, "bug.component"))
            return false;
        report.components.insert(std::move(component));
    }

    uint32_t worker = 0;
    if (!in.u32(worker, "bug.worker") ||
        !in.u64(record.epoch, "bug.epoch") ||
        !in.u64(record.hits, "bug.hits") ||
        !in.str(record.config, "bug.config") ||
        !in.str(record.variant, "bug.variant") ||
        !bio::readTestCase(in, record.repro)) {
        return false;
    }
    record.worker = worker;
    if (record.hits == 0)
        return in.fail("zero-hit bug record");
    return true;
}

} // namespace

bool
saveCheckpoint(std::ostream &os, const CampaignCheckpoint &cp)
{
    os.write(kMagic, sizeof(kMagic));
    bio::putU32(os, kSnapshotFormatVersion);
    bio::putU64(os, cp.master_seed);
    bio::putU64(os, cp.iterations_done);
    bio::putU64(os, cp.epochs_done);
    bio::putU64(os, cp.steals);
    bio::putU64(os, cp.preloaded);
    for (uint64_t word : cp.steal_rng)
        bio::putU64(os, word);
    bio::putU32(os, static_cast<uint32_t>(cp.preloaded_ids.size()));
    for (const auto &[worker, seq] : cp.preloaded_ids) {
        bio::putU32(os, worker);
        bio::putU64(os, seq);
    }

    bio::putU32(os, static_cast<uint32_t>(cp.groups.size()));
    for (const CoverageGroupSnap &group : cp.groups) {
        bio::putString(os, group.config);
        bio::putU32(os, static_cast<uint32_t>(group.modules.size()));
        for (const CoverageGroupSnap::Module &module :
             group.modules) {
            bio::putString(os, module.name);
            bio::putU32(os, module.slots);
            for (uint64_t word : module.words)
                bio::putU64(os, word);
        }
    }

    bio::putU32(os, static_cast<uint32_t>(cp.shards.size()));
    for (const ShardSnap &shard : cp.shards) {
        bio::putU64(os, shard.next_batch);
        bio::putU32(os, static_cast<uint32_t>(shard.stolen.size()));
        for (const auto &[worker, seq] : shard.stolen) {
            bio::putU32(os, worker);
            bio::putU64(os, seq);
        }
        bio::putU32(os,
                    static_cast<uint32_t>(
                        shard.pending_inject.size()));
        for (const core::TestCase &tc : shard.pending_inject)
            bio::writeTestCase(os, tc);
    }

    bio::putU32(os, static_cast<uint32_t>(cp.ledger.size()));
    for (const BugRecord &record : cp.ledger)
        writeBugRecord(os, record);

    os.flush();
    return os.good();
}

bool
loadCheckpoint(std::istream &is, CampaignCheckpoint &out,
               std::string *error)
{
    bio::Reader in{is, {}};
    auto report = [&](bool ok) {
        if (!ok && error)
            *error = in.error.empty() ? "snapshot load failed"
                                      : in.error;
        return ok;
    };

    char magic[sizeof(kMagic)] = {};
    if (!in.bytes(magic, sizeof(magic), "magic"))
        return report(false);
    if (!std::equal(std::begin(magic), std::end(magic),
                    std::begin(kMagic))) {
        in.fail("bad snapshot magic");
        return report(false);
    }
    uint32_t version = 0;
    if (!in.u32(version, "version"))
        return report(false);
    if (version != kSnapshotFormatVersion) {
        in.fail("unsupported snapshot version " +
                std::to_string(version));
        return report(false);
    }
    if (!in.u64(out.master_seed, "master_seed") ||
        !in.u64(out.iterations_done, "iterations_done") ||
        !in.u64(out.epochs_done, "epochs_done") ||
        !in.u64(out.steals, "steals") ||
        !in.u64(out.preloaded, "preloaded")) {
        return report(false);
    }
    for (uint64_t &word : out.steal_rng) {
        if (!in.u64(word, "steal_rng"))
            return report(false);
    }
    if ((out.steal_rng[0] | out.steal_rng[1] | out.steal_rng[2] |
         out.steal_rng[3]) == 0) {
        in.fail("degenerate (all-zero) steal_rng state");
        return report(false);
    }
    uint32_t preloaded_count = 0;
    if (!in.count(preloaded_count, bio::kMaxVectorItems,
                  "preloaded_ids")) {
        return report(false);
    }
    out.preloaded_ids.clear();
    out.preloaded_ids.reserve(
        std::min(preloaded_count, bio::kMaxReserveItems));
    for (uint32_t i = 0; i < preloaded_count; ++i) {
        uint32_t worker = 0;
        uint64_t seq = 0;
        if (!in.u32(worker, "preloaded.worker") ||
            !in.u64(seq, "preloaded.seq")) {
            return report(false);
        }
        out.preloaded_ids.emplace_back(worker, seq);
    }

    uint32_t group_count = 0;
    if (!in.count(group_count, bio::kMaxVectorItems,
                  "coverage groups")) {
        return report(false);
    }
    out.groups.clear();
    for (uint32_t g = 0; g < group_count; ++g) {
        CoverageGroupSnap group;
        if (!in.str(group.config, "group.config"))
            return report(false);
        uint32_t module_count = 0;
        if (!in.count(module_count, bio::kMaxVectorItems,
                      "group.modules")) {
            return report(false);
        }
        for (uint32_t m = 0; m < module_count; ++m) {
            CoverageGroupSnap::Module module;
            if (!in.str(module.name, "module.name") ||
                !in.u32(module.slots, "module.slots")) {
                return report(false);
            }
            if (module.slots > kMaxModuleSlots) {
                in.fail("oversized module.slots");
                return report(false);
            }
            const size_t words =
                (static_cast<size_t>(module.slots) + 63) / 64;
            module.words.resize(words);
            for (size_t w = 0; w < words; ++w) {
                if (!in.u64(module.words[w], "module.words"))
                    return report(false);
            }
            // Bits past the slot count would corrupt a restore.
            const uint32_t tail = module.slots % 64;
            if (words > 0 && tail != 0 &&
                (module.words.back() >> tail) != 0) {
                in.fail("coverage bits past module.slots");
                return report(false);
            }
            group.modules.push_back(std::move(module));
        }
        out.groups.push_back(std::move(group));
    }

    uint32_t shard_count = 0;
    if (!in.count(shard_count, bio::kMaxVectorItems, "shards"))
        return report(false);
    out.shards.clear();
    for (uint32_t s = 0; s < shard_count; ++s) {
        ShardSnap shard;
        if (!in.u64(shard.next_batch, "shard.next_batch"))
            return report(false);
        uint32_t stolen_count = 0;
        if (!in.count(stolen_count, bio::kMaxVectorItems,
                      "shard.stolen")) {
            return report(false);
        }
        shard.stolen.reserve(
            std::min(stolen_count, bio::kMaxReserveItems));
        for (uint32_t i = 0; i < stolen_count; ++i) {
            uint32_t worker = 0;
            uint64_t seq = 0;
            if (!in.u32(worker, "stolen.worker") ||
                !in.u64(seq, "stolen.seq")) {
                return report(false);
            }
            shard.stolen.emplace_back(worker, seq);
        }
        uint32_t pending_count = 0;
        if (!in.count(pending_count, bio::kMaxVectorItems,
                      "shard.pending_inject")) {
            return report(false);
        }
        for (uint32_t i = 0; i < pending_count; ++i) {
            core::TestCase tc;
            if (!bio::readTestCase(in, tc))
                return report(false);
            shard.pending_inject.push_back(std::move(tc));
        }
        out.shards.push_back(std::move(shard));
    }

    uint32_t ledger_count = 0;
    if (!in.count(ledger_count, bio::kMaxVectorItems, "ledger"))
        return report(false);
    out.ledger.clear();
    std::set<std::string> seen_keys;
    for (uint32_t i = 0; i < ledger_count; ++i) {
        BugRecord record;
        if (!readBugRecord(in, record))
            return report(false);
        if (!seen_keys.insert(record.report.key()).second) {
            in.fail("duplicate ledger signature " +
                    record.report.key());
            return report(false);
        }
        out.ledger.push_back(std::move(record));
    }

    if (is.peek() != std::istream::traits_type::eof()) {
        in.fail("trailing bytes after checkpoint");
        return report(false);
    }
    return report(true);
}

} // namespace dejavuzz::campaign
